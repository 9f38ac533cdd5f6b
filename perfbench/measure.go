package main

import (
	"crypto/ecdh"
	"crypto/rand"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of v (0 when v is empty).
// It sorts v in place.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	return v[min(max(i, 0), len(v)-1)]
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func durations(ds []time.Duration, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = f(d)
	}
	return out
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeNames are the runtime/metrics series a phase takes deltas of.
var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

// phase measures the process over one measured phase: CPU from
// getrusage, GC and scheduler figures from runtime/metrics.
type phase struct {
	cpu0  time.Duration
	rm0   []metrics.Sample
	heap0 float64
}

// startPhase forces a GC, so the phase starts from a clean heap, and
// takes the first readings.
func startPhase() *phase {
	p := &phase{heap0: liveHeap()}
	p.rm0 = readRuntime()
	p.cpu0 = cpuTime()
	return p
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// phaseStats are the process-wide figures of one measured phase.
type phaseStats struct {
	cpu        time.Duration
	gcCPUFrac  float64
	allocs     float64
	allocBytes float64
	pauseP99Us float64
	schedP99Us float64
	heapLiveMB float64
	// heapGrowth is the live heap the phase added.
	heapGrowth float64
}

// stop ends the phase. It forces a GC last, so the live heap it reports
// is what the phase left reachable.
func (p *phase) stop() phaseStats {
	cpu := cpuTime() - p.cpu0
	rm1 := readRuntime()
	st := phaseStats{cpu: cpu}
	if cpu > 0 {
		st.gcCPUFrac = (rm1[0].Value.Float64() - p.rm0[0].Value.Float64()) / cpu.Seconds()
	}
	st.allocs = float64(rm1[1].Value.Uint64() - p.rm0[1].Value.Uint64())
	st.allocBytes = float64(rm1[2].Value.Uint64() - p.rm0[2].Value.Uint64())
	st.pauseP99Us = histDeltaQuantile(p.rm0[3].Value.Float64Histogram(), rm1[3].Value.Float64Histogram(), 0.99) * 1e6
	st.schedP99Us = histDeltaQuantile(p.rm0[4].Value.Float64Histogram(), rm1[4].Value.Float64Histogram(), 0.99) * 1e6
	live := liveHeap()
	st.heapLiveMB = live / (1 << 20)
	st.heapGrowth = live - p.heap0
	return st
}

// liveHeap forces a GC and returns the bytes still reachable.
func liveHeap() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// histDeltaQuantile is the q-quantile of the events a runtime histogram
// gained between two reads, as the upper bound of the bucket holding it.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	delta := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		delta[i] = b.Counts[i] - a.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range delta {
		cum += c
		if cum >= want {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// settle lets the goroutines of a torn-down deployment exit and
// collects their garbage, so one set-up does not pay for the last.
func settle() {
	time.Sleep(20 * time.Millisecond)
	runtime.GC()
}

// x25519Probe is the median time of one X25519 shared-secret
// computation from crypto/ecdh, the unit of the HPKE crypto floor.
func x25519Probe() (float64, error) {
	a, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return 0, err
	}
	b, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return 0, err
	}
	v := make([]float64, 401)
	for i := range v {
		t0 := time.Now()
		if _, err := a.ECDH(b.PublicKey()); err != nil {
			return 0, err
		}
		v[i] = us(time.Since(t0))
	}
	return median(v), nil
}
