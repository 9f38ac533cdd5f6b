package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/workload"
)

// schedule returns the due offsets of every op in a window: a Poisson
// process at rate ops/s from workload.Arrivals, derived from the seed
// alone, so the same seed gives the same schedule on every machine.
func schedule(seed int64, rate float64, window time.Duration) ([]time.Duration, error) {
	a, err := workload.NewArrivals(seed, rate)
	if err != nil {
		return nil, err
	}
	var due []time.Duration
	for at := a.Next(); at < window; at += a.Next() {
		due = append(due, at)
	}
	if len(due) == 0 {
		return nil, fmt.Errorf("no arrivals in %v at %v/s", window, rate)
	}
	return due, nil
}

// opTiming is one op's timeline, as offsets from the run's base
// instant. Latency is end-due: it is timed from when the op was due,
// not from when a connection came free, so a stall charges its wait to
// every op queued behind it (the coordinated-omission correction).
type opTiming struct {
	due, start, end time.Duration
	// connWait is how long the due op waited for a free connection;
	// lag is how late the generator itself started it after that.
	connWait, lag time.Duration
	err           error
}

func (o opTiming) latency() time.Duration { return o.end - o.due }

// openLoop runs do(i) for every op of the schedule on workers
// goroutines. Each goroutine stands for one client connection: it takes
// the next op when it comes free, sleeps until the op is due if it is
// early, and runs it at once if it is late. It returns when every op
// has run.
func openLoop(base time.Time, due []time.Duration, workers int, do func(i int) error) []opTiming {
	out := make([]opTiming, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				free := time.Since(base)
				if free < due[i] {
					time.Sleep(due[i] - free)
				}
				start := time.Since(base)
				ready := max(free, due[i])
				err := do(i)
				out[i] = opTiming{due: due[i], start: start, end: time.Since(base),
					connWait: max(0, free-due[i]), lag: start - ready, err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
