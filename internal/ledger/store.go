package ledger

import (
	"hash/maphash"
	"sync"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/telemetry"
)

// chunkBits sizes the fixed chunks of a chunked store (1024 elements).
const chunkBits = 10

const chunkLen = 1 << chunkBits

// chunked is an append-only sequence kept in fixed-size chunks. Growing
// it never copies earlier chunks or leaves a doubled backing array
// behind, so capacity beyond the length is at most one chunk. The first
// chunk grows geometrically up to chunkLen, which keeps the many small
// shards of an experiment run small.
type chunked[T any] struct {
	chunks [][]T
	n      int
}

func (c *chunked[T]) push(v T) {
	last := len(c.chunks) - 1
	switch {
	case last < 0:
		c.chunks = append(c.chunks, make([]T, 0, 8))
		last = 0
	case len(c.chunks[last]) == chunkLen:
		c.chunks = append(c.chunks, make([]T, 0, chunkLen))
		last++
	case len(c.chunks[last]) == cap(c.chunks[last]): // first chunk, below chunkLen
		grown := make([]T, len(c.chunks[last]), 2*cap(c.chunks[last]))
		copy(grown, c.chunks[last])
		c.chunks[last] = grown
	}
	c.chunks[last] = append(c.chunks[last], v)
	c.n++
}

func (c *chunked[T]) at(i int) T { return c.chunks[i>>chunkBits][i&(chunkLen-1)] }

func (c *chunked[T]) len() int { return c.n }

// internStripes is the number of independently locked stripes of the
// intern table; a power of two, stripeBits wide. Concurrent observers
// interning different strings rarely meet on one stripe, and strings
// already interned cost a read lock only.
const (
	stripeBits    = 4
	internStripes = 1 << stripeBits
)

// interner maps every string a ledger stores (handles, plus values,
// subjects and phases when retaining) to a uint32 id, ledger-wide. Id 0
// is the empty string; other ids carry their stripe in the low
// stripeBits and the 1-based index in that stripe's string store above
// them.
type interner struct {
	seed    maphash.Seed
	stripes [internStripes]internStripe
}

type internStripe struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs chunked[string]
}

func newInterner() *interner { return &interner{seed: maphash.MakeSeed()} }

// id returns s's id, interning s on first sight.
func (t *interner) id(s string) uint32 {
	if s == "" {
		return 0
	}
	n := uint32(maphash.String(t.seed, s) & (internStripes - 1))
	st := &t.stripes[n]
	st.mu.RLock()
	id, ok := st.ids[s]
	st.mu.RUnlock()
	if ok {
		return id
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if id, ok = st.ids[s]; !ok {
		if st.ids == nil {
			st.ids = map[string]uint32{}
		}
		st.strs.push(s)
		id = uint32(st.strs.len())<<stripeBits | n
		st.ids[s] = id
	}
	return id
}

// str returns the string interned as id.
func (t *interner) str(id uint32) string {
	if id == 0 {
		return ""
	}
	st := &t.stripes[id&(internStripes-1)]
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.strs.at(int(id>>stripeBits) - 1)
}

// record is one admitted observation in compact form: 40 bytes with
// every string replaced by its intern id. The observer is the shard's;
// kind and label are the shard's axis; handle ids sit in the shard's
// flat handle store from handles up to the next record's offset.
type record struct {
	seq        uint64
	time       time.Duration
	value      uint32
	subject    uint32
	phase      uint32
	handles    uint32
	axis       uint32 // index into shard.axes
	level      uint8  // core.Level; the lattice has three values
	recognized bool
}

// axis is one knowledge-tuple axis: a (kind, label) pair.
type axis struct {
	kind  core.Kind
	label string
}

// axisFold is the admission-time summary of one axis an observer saw:
// the highest level observed on it and how many observations it holds.
type axisFold struct {
	axis
	max   core.Level
	count int
}

// shard holds one observer's fold — the per-axis summaries, distinct
// handles and observation count the derivations project from — plus,
// in a retaining ledger, its record log. Each observer gets its own
// lock, so concurrent observers never contend with each other on the
// hot Saw path.
type shard struct {
	name string

	mu     sync.Mutex
	n      int // observations admitted
	axes   []axisFold
	linked map[uint32]struct{} // distinct handle ids
	// recs and handles are the record log, empty unless retaining.
	recs    chunked[record]
	handles chunked[uint32]
	// obsCounter is the cached telemetry counter for this observer,
	// nil when the ledger is uninstrumented (Counter.Add is nil-safe).
	obsCounter *telemetry.Counter
}

// admit folds r's axis, level and handles into the shard's summary and,
// with retain set, appends r to the record log. Caller holds s.mu.
func (s *shard) admit(r record, a axis, handles []uint32, retain bool) {
	s.n++
	r.axis = s.fold(a, core.Level(r.level))
	for _, h := range handles {
		s.linked[h] = struct{}{}
	}
	if !retain {
		return
	}
	r.handles = uint32(s.handles.len())
	for _, h := range handles {
		s.handles.push(h)
	}
	s.recs.push(r)
}

func (s *shard) fold(a axis, level core.Level) uint32 {
	for i := range s.axes {
		if f := &s.axes[i]; f.axis == a {
			f.count++
			f.max = max(f.max, level)
			return uint32(i)
		}
	}
	s.axes = append(s.axes, axisFold{axis: a, max: level, count: 1})
	return uint32(len(s.axes) - 1)
}

// expand rebuilds record i as the Observation that was admitted. Its
// Handles are carved, capacity-capped, from *arena, so bulk expansions
// allocate handle slices in blocks. Caller holds s.mu.
func (s *shard) expand(strs *interner, i int, arena *[]string) Observation {
	r := s.recs.at(i)
	a := s.axes[r.axis]
	o := Observation{
		Observer:   s.name,
		Kind:       a.kind,
		Label:      a.label,
		Level:      core.Level(r.level),
		Subject:    strs.str(r.subject),
		Value:      strs.str(r.value),
		Time:       r.time,
		Recognized: r.recognized,
		Phase:      strs.str(r.phase),
		seq:        r.seq,
	}
	end := s.handles.len()
	if i+1 < s.recs.len() {
		end = int(s.recs.at(i + 1).handles)
	}
	if n := end - int(r.handles); n > 0 {
		if cap(*arena)-len(*arena) < n {
			*arena = make([]string, 0, max(n, 256))
		}
		a := *arena
		for j := int(r.handles); j < end; j++ {
			a = append(a, strs.str(s.handles.at(j)))
		}
		o.Handles = a[len(a)-n : len(a) : len(a)]
		*arena = a
	}
	return o
}

// expandAll appends every record of the shard to dst in admission
// order. Caller holds s.mu.
func (s *shard) expandAll(strs *interner, dst []Observation) []Observation {
	var arena []string
	for i := 0; i < s.recs.len(); i++ {
		dst = append(dst, s.expand(strs, i, &arena))
	}
	return dst
}
