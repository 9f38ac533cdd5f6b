// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public APIs of the protocol packages, checks
// every output, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) as one JSON object on its last
// line of output:
//
//	bash perfbench/run.sh --workload odoh-open --seed 1 --seconds 50 --trace 0
//
// Workloads:
//
//   - odoh-open: open-loop Poisson ODoH queries over the real two-hop
//     HTTP deployment, ledger on, verdict derived at the end.
//   - mixnet-open: open-loop Poisson messages through a 3-relay TCP
//     cascade, ledger off.
//
// A traced run also probes single layers after its measured phases:
// X25519, blind RSA signing, and full E1–E16 experiment passes.
//
// The exit status is nonzero when any output is wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// outcome is what one phase of a workload produced.
type outcome struct {
	attempted, failed int
	// problems are correctness failures; any one fails the run.
	problems []string
	e2e      map[string]float64
	layer    map[string]float64
	// info is printed for people but is not a metric: sample counts and
	// the figures the end-to-end set expresses another way.
	info map[string]float64
	// x25519PerOp is the X25519 operations one op needs at the least.
	x25519PerOp int
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]float64{}}
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// latencyWindow is the span of due times whose latencies form one
// sample of p50_ms and latency.p99_ms. One GC cycle or host stall then
// moves one window, not the run.
const latencyWindow = 2 * time.Second

// sample is one completed op: when it was due and its latency in ms.
type sample struct {
	due time.Duration
	ms  float64
}

// setE2E fills the end-to-end metrics from the ops attempted, the
// samples of those that succeeded, and the phase's process figures.
func (o *outcome) setE2E(setups []time.Duration, attempted int, done []sample, window time.Duration, ps phaseStats) {
	o.attempted, o.failed = attempted, attempted-len(done)
	o.info["samples"] = float64(len(done))
	o.e2e["setup_s"] = median(durations(setups, time.Duration.Seconds))
	// Noise from other tenants of a shared host only adds latency, and
	// it comes and goes within a run, so p50_ms takes the lower
	// quartile of the windows' medians: a slower program raises every
	// window, a busy neighbour only some.
	o.e2e["p50_ms"] = windowedQuantile(done, 0.5, 0.25)
	o.layer["latency.p99_ms"] = windowedQuantile(done, 0.99, 0.5)
	all := make([]float64, len(done))
	for i, s := range done {
		all[i] = s.ms
	}
	o.info["whole_run_p50_ms"] = quantile(all, 0.5)
	o.info["whole_run_p99_ms"] = quantile(all, 0.99)

	o.e2e["ops_per_s"] = float64(len(done)) / window.Seconds()
	o.e2e["heap_live_mb"] = ps.heapLiveMB
	perOp := float64(max(len(done), 1))
	o.layer["cpu_us_per_op"] = us(ps.cpu) / perOp
	o.layer["gc.cpu_frac"] = ps.gcCPUFrac
	o.layer["gc.allocs_per_op"] = ps.allocs / perOp
	o.layer["gc.bytes_per_op"] = ps.allocBytes / perOp
	o.layer["gc.pause_p99_us"] = ps.pauseP99Us
	o.layer["sched.latency_p99_us"] = ps.schedP99Us
}

// windowedQuantile is the over-quantile, over latencyWindow-long
// windows of due times, of each window's q-quantile latency.
func windowedQuantile(done []sample, q, over float64) float64 {
	byWindow := map[int64][]float64{}
	for _, s := range done {
		w := int64(s.due / latencyWindow)
		byWindow[w] = append(byWindow[w], s.ms)
	}
	var perWindow []float64
	for _, v := range byWindow {
		perWindow = append(perWindow, quantile(v, q))
	}
	return quantile(perWindow, over)
}

// setGen fills the generator's own figures: how long due ops waited for
// a connection and how late the generator ran.
func (o *outcome) setGen(timings []opTiming) {
	wait := make([]float64, len(timings))
	lag := make([]float64, len(timings))
	for i, t := range timings {
		wait[i], lag[i] = ms(t.connWait), ms(t.lag)
	}
	o.layer["gen.conn_wait_p99_ms"] = quantile(wait, 0.99)
	o.layer["gen.send_lag_p99_ms"] = quantile(lag, 0.99)
	o.info["gen.send_lag_p50_ms"] = quantile(lag, 0.5)
}

// config is one phase's settings. Only the attribution test sets rate
// and delays: delays inject a fixed slowdown into a benchmark-side
// wrapper, and a lower rate keeps the slowed system out of overload.
type config struct {
	seed int64
	// rate is the offered load in ops/s; 0 means the workload's own.
	rate    float64
	window  time.Duration
	workers int
	tr      *tracer
	delays  delays
}

type delays struct {
	targetHandler time.Duration // odoh-open: the TargetHandler wrapper
	send          time.Duration // mixnet-open: the Transport.Send wrapper
}

var workloads = map[string]func(config) (*outcome, error){
	"odoh-open":   runODoH,
	"mixnet-open": runMixnet,
}

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "workload to run: odoh-open or mixnet-open")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 50, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload odoh-open|mixnet-open, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds) * time.Second, workers: runtime.NumCPU()}

	ref, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := ref
	metrics := map[string]float64{}
	units := map[string]string{}
	if *trace == 0 {
		for _, m := range endToEnd {
			metrics[m.name], units[m.name] = ref.e2e[m.name], m.unit
		}
	} else {
		cfg.tr = newTracer(time.Now())
		traced, err := run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.jsonl", *name, *seed)
		if err := cfg.tr.writeJSONL(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		fmt.Printf("spans: %s\n", path)
		out = mergeTraced(ref, traced)
		x, err := x25519Probe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.layer["hpke.x25519_us"] = x
		out.layer["hpke.floor_ratio"] = ref.layer["cpu_us_per_op"] / (float64(ref.x25519PerOp) * x)
		sign, err := blindSignProbe()
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		out.layer["blindrsa.sign_us"] = sign
		suiteProbe(cfg.workers, out)
		for _, m := range perLayer {
			metrics[m.name], units[m.name] = out.layer[m.name], m.unit
		}
	}

	printTable(*name, out, ref)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	for k, v := range metrics {
		res.Metrics[k] = value{v, units[k]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// mergeTraced combines the two phases of a traced run: span-derived
// layer metrics from the traced phase, every other layer metric from the
// untraced one, and the tracing overhead as traced minus untraced.
func mergeTraced(ref, traced *outcome) *outcome {
	out := newOutcome()
	out.attempted = ref.attempted + traced.attempted
	out.failed = ref.failed + traced.failed
	out.problems = append(append(out.problems, ref.problems...), traced.problems...)
	for k, v := range ref.layer {
		out.layer[k] = v
	}
	// Only the traced phase sets the span-derived metrics.
	for k, v := range traced.layer {
		if _, ok := out.layer[k]; !ok {
			out.layer[k] = v
		}
	}
	for _, m := range endToEnd {
		out.layer["trace.overhead."+m.name] = traced.e2e[m.name] - ref.e2e[m.name]
	}
	out.layer["trace.overhead.cpu_us_per_op"] = traced.layer["cpu_us_per_op"] - ref.layer["cpu_us_per_op"]
	for k, v := range ref.info {
		out.info[k] = v
	}
	return out
}

// printTable prints every figure by name and unit, for people.
func printTable(name string, out, ref *outcome) {
	fmt.Printf("workload %s: %d attempted, %d failed, error_rate %.6f\n",
		name, out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)))
	for _, p := range out.problems {
		fmt.Printf("FAIL: %s\n", p)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-34s %16.9g %s\n", m.name, ref.e2e[m.name], m.unit)
	}
	keys := make([]string, 0, len(out.info))
	for k := range out.info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %16.9g\n", k, out.info[k])
	}
	if len(out.layer) == 0 {
		return
	}
	for _, m := range perLayer {
		if v, ok := out.layer[m.name]; ok {
			fmt.Printf("  %-34s %16.9g %s\n", m.name, v, m.unit)
		}
	}
}
