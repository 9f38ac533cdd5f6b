package wiretrace

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// critpath.go: the per-request critical-path analyzer. A traced
// request is a chain of spans linked by Parent references (which cross
// trace-ID rotations: the span IDs stitch, the trace IDs deliberately
// don't). Stitching is an *operator* capability — it requires every
// vantage's store at once, which is exactly the full-coalition view —
// so it lives here in analysis code, never in any single vantage.
//
// For each root-to-leaf chain the request's wall time decomposes into
// segments: the self time of each span (a vantage handling the message,
// minus the part of it a deeper chain span covers) and the gap between
// a parent ending and a child starting (queueing — e.g. a mix batching
// — plus the wire). The segments sum to the request's total, so the
// dominant segment is the critical hop: where this request actually
// spent its latency.

// Segment is one leg of a request's critical path.
type Segment struct {
	// Label names the leg: "Mix 1/mixnet.hop" for time inside a span,
	// "Mix 1 → Mix 2" for the gap between them.
	Label string
	Dur   time.Duration
}

// Path is one stitched request chain.
type Path struct {
	Trace string // root trace ID (request identifier for exemplars)
	// Total runs from the root's start to the later of the root's and
	// the leaf's end; Segments sum to it.
	Total    time.Duration
	Hops     int
	Segments []Segment
	Dominant Segment
}

// Paths stitches all stores and returns one Path per root span that
// leads at least one child, sorted by total duration descending.
func Paths(stores []*Store) []Path {
	byID := map[SpanID]*Span{}
	children := map[SpanID][]*Span{}
	roots := []*Span{}
	for _, st := range stores {
		for _, sp := range st.Spans() {
			byID[sp.ID] = sp
		}
	}
	for _, sp := range byID {
		if !sp.Parent.IsZero() && byID[sp.Parent] != nil {
			children[sp.Parent] = append(children[sp.Parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return cs[i].ID.String() < cs[j].ID.String() })
	}
	var out []Path
	for _, root := range roots {
		if len(children[root.ID]) == 0 {
			continue
		}
		chain := longestChain(root, children)
		p := Path{Trace: root.Trace.String(), Hops: len(chain)}
		p.Segments, p.Total = segments(chain)
		for _, seg := range p.Segments {
			if seg.Dur > p.Dominant.Dur {
				p.Dominant = seg
			}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Trace < out[j].Trace
	})
	return out
}

// segments attributes every instant from the root's start to the later
// of the root's and the leaf's end to exactly one segment: the deepest
// chain span open at that instant, or, where none is open, the gap
// before the next span to start, labelled "parent → child". Spans come
// in chain order, each preceded by its nonzero incoming gap; the
// segments sum to the returned total.
func segments(chain []*Span) ([]Segment, time.Duration) {
	end := func(sp *Span) time.Duration { return max(sp.End, sp.Start) }
	root, leaf := chain[0], chain[len(chain)-1]
	from, to := root.Start, max(end(root), end(leaf))
	cuts := []time.Duration{from, to}
	for _, sp := range chain {
		cuts = append(cuts, sp.Start, end(sp))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	self := make([]time.Duration, len(chain))
	gap := make([]time.Duration, len(chain)) // gap[i] precedes chain[i]
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if a < from || b > to {
			continue
		}
		owner := -1
		for i, sp := range chain {
			if sp.Start <= a && end(sp) >= b {
				owner = i
			}
		}
		if owner >= 0 {
			self[owner] += b - a
			continue
		}
		// Uncovered instants lie after the root ends and before the
		// leaf starts, so a later chain span always starts after them.
		next := slices.IndexFunc(chain, func(sp *Span) bool { return sp.Start >= b })
		gap[next] += b - a
	}
	var segs []Segment
	for i, sp := range chain {
		if gap[i] > 0 {
			segs = append(segs, Segment{Label: chain[i-1].Vantage + " → " + sp.Vantage, Dur: gap[i]})
		}
		segs = append(segs, Segment{Label: sp.Vantage + "/" + sp.Name, Dur: self[i]})
	}
	return segs, to - from
}

// longestChain walks from root to the leaf with the latest end time.
func longestChain(root *Span, children map[SpanID][]*Span) []*Span {
	chain := []*Span{root}
	cur := root
	for {
		next := children[cur.ID]
		if len(next) == 0 {
			return chain
		}
		best := next[0]
		for _, c := range next[1:] {
			if c.End > best.End {
				best = c
			}
		}
		chain = append(chain, best)
		cur = best
	}
}

// Exemplar ties a latency to a concrete trace so slow percentiles in a
// summary link to an inspectable request.
type Exemplar struct {
	Trace      string  `json:"trace"`
	TotalMs    float64 `json:"total_ms"`
	Dominant   string  `json:"dominant"`
	DominantMs float64 `json:"dominant_ms"`
}

// CritSummary aggregates the critical-path analysis over a run.
type CritSummary struct {
	Requests int `json:"requests"`
	// DominantCounts histograms which leg dominated each request.
	DominantCounts map[string]int `json:"dominant_counts"`
	// Slowest holds exemplars for the slowest requests, descending.
	Slowest []Exemplar `json:"slowest,omitempty"`
}

// SummarizeCritical runs the analyzer over the plane and keeps topK
// slowest exemplars. Returns nil when nothing was stitched.
func SummarizeCritical(p *Plane, topK int) *CritSummary {
	if !p.Enabled() {
		return nil
	}
	paths := Paths(p.Stores())
	if len(paths) == 0 {
		return nil
	}
	s := &CritSummary{Requests: len(paths), DominantCounts: map[string]int{}}
	for _, pt := range paths {
		s.DominantCounts[pt.Dominant.Label]++
	}
	for i := 0; i < len(paths) && i < topK; i++ {
		pt := paths[i]
		s.Slowest = append(s.Slowest, Exemplar{
			Trace:      pt.Trace,
			TotalMs:    float64(pt.Total.Nanoseconds()) / 1e6,
			Dominant:   pt.Dominant.Label,
			DominantMs: float64(pt.Dominant.Dur.Nanoseconds()) / 1e6,
		})
	}
	return s
}

// String renders the summary as a short human block for loadgen output.
func (s *CritSummary) String() string {
	if s == nil {
		return ""
	}
	type kv struct {
		label string
		n     int
	}
	var ks []kv
	for l, n := range s.DominantCounts {
		ks = append(ks, kv{l, n})
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].n != ks[j].n {
			return ks[i].n > ks[j].n
		}
		return ks[i].label < ks[j].label
	})
	out := fmt.Sprintf("critical path over %d stitched requests:\n", s.Requests)
	for i, k := range ks {
		if i == 5 {
			out += fmt.Sprintf("  … %d more legs\n", len(ks)-5)
			break
		}
		out += fmt.Sprintf("  dominant %-28s %6d requests (%.1f%%)\n",
			k.label, k.n, 100*float64(k.n)/float64(s.Requests))
	}
	for i, ex := range s.Slowest {
		if i == 3 {
			break
		}
		out += fmt.Sprintf("  slowest #%d: trace %s total %.2fms dominated by %s (%.2fms)\n",
			i+1, ex.Trace, ex.TotalMs, ex.Dominant, ex.DominantMs)
	}
	return out
}
