package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
	"decoupling/internal/transport"
)

// Runner executes a set of experiments on a bounded worker pool and
// collects results deterministically ordered by the input slice (id
// order for All()).
//
// Experiments are mutually independent by construction: each builds its
// own simnet (virtual clock + seeded RNG), classifier, and ledger, and
// real-loopback systems bind ephemeral 127.0.0.1:0 ports. The runner
// therefore only has to order the collection, not the execution — the
// report produced from its results is byte-identical whether Workers is
// 1 or GOMAXPROCS.
//
// Telemetry preserves that property: each experiment gets its own
// telemetry handle (its protocol-phase stack is per-experiment state)
// and its own wire-trace plane. The Metrics registry is shared, but
// counter and histogram updates commute and exposition output is
// sorted.
type Runner struct {
	// Workers bounds concurrent experiment executions. Values < 1 mean
	// runtime.GOMAXPROCS(0).
	Workers int
	// Metrics, when non-nil, is the shared registry every experiment
	// reports counters and histograms into.
	Metrics *telemetry.Metrics
	// WireMode, when not ModeOff, gives each experiment its own
	// wire-trace plane (returned in its RunnerResult for export and
	// for the trace-plane audit). Per-experiment planes keep span and
	// trace ids independent of -parallel.
	WireMode wiretrace.Mode
	// Transport, when non-nil, overrides each experiment's transport
	// construction (the Ctx.NewRunner lever): cmd/experiments
	// -transport tcp runs the whole sweep over real loopback sockets.
	Transport func(seed int64) transport.Runner
}

// RunnerResult pairs one experiment's outcome with any execution error.
type RunnerResult struct {
	ID     string
	Result *Result
	Err    error
	// Wire is the experiment's wire-trace plane (nil unless the runner
	// ran with a WireMode).
	Wire *wiretrace.Plane
}

// Run executes every experiment in exps and returns one RunnerResult
// per input, in input order regardless of completion order. It never
// returns early: an experiment error is recorded in its slot while the
// remaining experiments still run.
func (r *Runner) Run(exps []Experiment) []RunnerResult {
	workers := r.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}
	out := make([]RunnerResult, len(exps))
	if len(exps) == 0 {
		return out
	}

	type job struct {
		idx      int
		enqueued time.Time
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				exp := exps[j.idx]
				tel := telemetry.New(r.Metrics, telemetry.A("experiment", exp.ID))
				tel.Observe(telemetry.MetricRunnerQueueWait,
					"Wall-clock wait between experiment enqueue and worker pickup.",
					telemetry.WaitBuckets, time.Since(j.enqueued).Seconds())
				start := time.Now()
				// Seeded by slot so a plane's ids depend on the input
				// order, never on which worker picked the job up.
				wire := wiretrace.New(r.WireMode, int64(1000+j.idx))
				res, err := runOne(exp, tel, wire, r.Transport)
				if res != nil {
					res.WallElapsed = time.Since(start)
				}
				out[j.idx] = RunnerResult{ID: exp.ID, Result: res, Err: err, Wire: wire}
			}
		}()
	}
	for i := range exps {
		jobs <- job{idx: i, enqueued: time.Now()}
	}
	close(jobs)
	wg.Wait()
	return out
}

// runOne executes a single experiment, converting panics into errors so
// one faulty experiment cannot take down a parallel run.
func runOne(exp Experiment, tel *telemetry.Telemetry, wire *wiretrace.Plane, tr func(seed int64) transport.Runner) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", exp.ID, p)
		}
	}()
	return exp.Run(Ctx{Tel: tel, Wire: wire, transport: tr})
}

// RunAll is shorthand for running every registered experiment with the
// given parallelism.
func RunAll(workers int) []RunnerResult {
	r := Runner{Workers: workers}
	return r.Run(All())
}
