package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function of that layer. Spans of one request share Req; a
// span not tied to one request (a mix flushing a batch) has Req -1.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // offsets from the tracer's base
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so untraced runs pay nothing
// but a nil check.
type tracer struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer(base time.Time) *tracer { return &tracer{base: base} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span that began at start.
func (t *tracer) add(id, parent, req int64, name string, start int64) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// link is what a hop hands the next one: the request and the span the
// next hop's span nests under.
type link struct{ req, span int64 }

// links joins spans across goroutines and sockets by a hash of the
// bytes that cross the hop, so the benchmark never touches the
// protocol: an ODoH query's ciphertext is byte-identical on both hops.
type links struct {
	mu sync.Mutex
	m  map[uint64]link
}

var hashSeed = maphash.MakeSeed()

func payloadKey(b []byte) uint64 { return maphash.Bytes(hashSeed, b) }

func newLinks() *links { return &links{m: map[uint64]link{}} }

func (l *links) put(key uint64, v link) {
	l.mu.Lock()
	l.m[key] = v
	l.mu.Unlock()
}

func (l *links) get(key uint64) (link, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.m[key]
	return v, ok
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return time.Duration(total)
}

// checkSegments asserts, per request, that the wait before its root
// span plus the self times of all its spans equal the request's total
// (due instant to root end). Self times telescope to the root's length
// only when every child lies inside its parent and siblings do not
// overlap, so the check fails on spans that escape or double-count.
// due maps a request to its due offset in the tracer's time base.
func checkSegments(spans []span, due func(req int64) int64) error {
	self := selfTimes(spans)
	type acc struct {
		root    *span
		selfSum time.Duration
	}
	reqs := map[int64]*acc{}
	for i := range spans {
		s := &spans[i]
		if s.Req < 0 {
			continue
		}
		a := reqs[s.Req]
		if a == nil {
			a = &acc{}
			reqs[s.Req] = a
		}
		if s.Parent == 0 {
			if a.root != nil {
				return fmt.Errorf("request %d has two root spans", s.Req)
			}
			a.root = s
		}
		a.selfSum += self[s.ID]
	}
	for req, a := range reqs {
		if a.root == nil {
			return fmt.Errorf("request %d has no root span", req)
		}
		d := due(req)
		total := time.Duration(a.root.End - d)
		sum := time.Duration(a.root.Start-d) + a.selfSum
		if diff := sum - total; diff > time.Microsecond || diff < -time.Microsecond {
			return fmt.Errorf("request %d: segments sum to %v, request total is %v", req, sum, total)
		}
	}
	return nil
}

// medianSelfUs is the median self time, in µs, of the spans named name.
func medianSelfUs(spans []span, self map[int64]time.Duration, name string) float64 {
	var v []float64
	for _, s := range spans {
		if s.Name == name {
			v = append(v, us(self[s.ID]))
		}
	}
	return quantile(v, 0.5)
}
