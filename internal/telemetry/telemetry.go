// Package telemetry is the reproduction's zero-dependency metrics
// layer: counters and fixed-bucket histograms with a Prometheus text
// exposition writer, plus the protocol-phase name stack the knowledge
// ledger stamps on each observation. Spans live on the audited wire
// plane (package wiretrace), the only tracer.
//
// A disabled layer is free: every entry point is nil-receiver safe, so
// instrumented hot paths (simnet delivery, ledger Saw) pay exactly one
// nil pointer check when telemetry is off.
package telemetry

import (
	"sort"
	"sync"
)

// Attr is one key/value annotation on a metric series.
type Attr struct {
	Key   string
	Value string
}

// A returns an Attr; it keeps instrumentation call sites short.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Telemetry bundles a (possibly shared) metrics registry, a set of base
// labels stamped on every metric series, and the stack of open protocol
// phases. A nil *Telemetry disables everything; all methods are
// nil-safe, so instrumented code needs no conditionals beyond one
// pointer check.
type Telemetry struct {
	m    *Metrics
	base []Attr

	mu        sync.Mutex
	phases    []phase // open phases, innermost last
	nextPhase uint64
}

// phase is one open entry of the phase stack; id tells apart two open
// phases of the same name.
type phase struct {
	id   uint64
	name string
}

// New builds a telemetry handle. metrics may be nil (phases only);
// base labels (e.g. experiment="E2") are added to every metric series.
func New(metrics *Metrics, base ...Attr) *Telemetry {
	return &Telemetry{m: metrics, base: base}
}

// Metrics returns the underlying registry (nil when metrics are off).
func (t *Telemetry) Metrics() *Metrics {
	if t == nil {
		return nil
	}
	return t.m
}

func noPhase() {}

// Phase opens the named protocol phase ("forward", "odoh", …) and
// returns the function that closes it. The ledger joins observations to
// the innermost open phase at Saw time, so audit evidence can say
// *when in the protocol* an entity learned a value. end removes exactly
// this phase, wherever it sits in the stack, and is idempotent. On a
// nil handle end is a no-op.
func (t *Telemetry) Phase(name string) (end func()) {
	if t == nil {
		return noPhase
	}
	t.mu.Lock()
	t.nextPhase++
	id := t.nextPhase
	t.phases = append(t.phases, phase{id: id, name: name})
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		defer t.mu.Unlock()
		for i := len(t.phases) - 1; i >= 0; i-- {
			if t.phases[i].id == id {
				t.phases = append(t.phases[:i], t.phases[i+1:]...)
				return
			}
		}
	}
}

// CurrentPhase returns the innermost open phase name, or "" when none is
// open (or the handle is nil).
func (t *Telemetry) CurrentPhase() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.phases); n > 0 {
		return t.phases[n-1].name
	}
	return ""
}

// Count adds n to the named counter, with the handle's base labels
// merged in.
func (t *Telemetry) Count(name, help string, n uint64, labels ...Attr) {
	if t == nil || t.m == nil {
		return
	}
	t.m.Counter(name, help, t.merge(labels)...).Add(n)
}

// Observe records v into the named fixed-bucket histogram, with the
// handle's base labels merged in.
func (t *Telemetry) Observe(name, help string, buckets []float64, v float64, labels ...Attr) {
	if t == nil || t.m == nil {
		return
	}
	t.m.Histogram(name, help, buckets, t.merge(labels)...).Observe(v)
}

// BaseLabels returns a copy of the handle's base labels, for callers
// that cache raw Counter/Histogram handles instead of going through
// Count/Observe.
func (t *Telemetry) BaseLabels() []Attr {
	if t == nil {
		return nil
	}
	return append([]Attr(nil), t.base...)
}

func (t *Telemetry) merge(labels []Attr) []Attr {
	if len(t.base) == 0 {
		return labels
	}
	out := make([]Attr, 0, len(t.base)+len(labels))
	out = append(out, t.base...)
	return append(out, labels...)
}

// SortAttrs sorts attributes by key (stable for equal keys).
func SortAttrs(attrs []Attr) {
	sort.SliceStable(attrs, func(i, j int) bool { return attrs[i].Key < attrs[j].Key })
}
