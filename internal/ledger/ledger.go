// Package ledger records what information each entity in a running
// system actually observes, and derives empirical knowledge tuples from
// those observations.
//
// This is how the reproduction makes the paper's tables falsifiable:
// protocol implementations call Saw only from code paths where an entity
// genuinely has a value in hand (an address on an accepted connection, a
// name parsed out of a decrypted query), and the experiment — not the
// protocol code — decides which values count as sensitive by registering
// ground truth in a Classifier. An ODoH proxy that could read query
// names would inevitably report them, the classifier would mark them
// sensitive, and the derived tuple would diverge from the paper's table.
//
// Observations also carry linkage handles (connection ids, digests of
// wire bytes). Entities that saw the same handle can join their records;
// entities that only saw re-encrypted bytes cannot. The adversary
// package builds its collusion analysis on exactly this.
//
// A ledger keeps what each entity learned, not every message it saw.
// New folds each observation at admission into its observer's per-axis
// maximum level and distinct-handle set, so memory is bounded by the
// distinct handles, subjects and axes, not by run length; DeriveTuple,
// DeriveSystem, Handles, Stats and Len read only that fold. Audits need
// the observations themselves: NewRetaining builds a ledger that also
// keeps the compact record log behind Observations, ByObserver and the
// Evidence derivations. Those methods panic on a fold-only ledger.
package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/telemetry"
)

// Observation is a single "entity X saw value V" event.
type Observation struct {
	Observer string
	Kind     core.Kind
	Label    string     // tuple axis label, e.g. "" or "H"/"N" for PGPP
	Level    core.Level // classification of the observed value
	Subject  string     // ground-truth subject, if the value is registered
	Value    string     // the value as observed
	Handles  []string   // linkage handles attached by the observer
	Time     time.Duration

	// Recognized reports whether the classifier had ground truth
	// registered for the value. Unrecognized values are opaque blobs
	// (ciphertexts, padding) whose concrete bytes are usually
	// run-dependent; audit renderers redact them.
	Recognized bool
	// Phase is the protocol phase open when the observation was
	// admitted (joined from the telemetry span stack); "" when the
	// ledger is uninstrumented or no phase span is open.
	Phase string

	// seq is the ledger-global admission order, used to reconstruct a
	// total order across per-observer shards.
	seq uint64
}

// Seq returns the ledger-global admission sequence number (1-based).
// Provenance tooling uses it to cross-reference evidence; it is only
// comparable between observations of the same ledger.
func (o Observation) Seq() uint64 { return o.seq }

// classEntry is the registered classification of one concrete value.
type classEntry struct {
	level   core.Level
	subject string
	label   string
}

// Classifier holds the experiment's ground truth: which concrete values
// constitute sensitive identities or sensitive data, which subject each
// belongs to, and which tuple axis (label) it falls on. Values never
// registered are treated as non-sensitive with an empty label — an
// opaque ciphertext carries no recognised information.
type Classifier struct {
	mu         sync.RWMutex
	identities map[string]classEntry
	data       map[string]classEntry
}

// NewClassifier returns an empty classifier.
func NewClassifier() *Classifier {
	return &Classifier{
		identities: map[string]classEntry{},
		data:       map[string]classEntry{},
	}
}

// RegisterIdentity records that the concrete value (e.g. an address
// string) is an identity of subject at the given level on axis label.
func (c *Classifier) RegisterIdentity(value, subject, label string, level core.Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.identities[value] = classEntry{level: level, subject: subject, label: label}
}

// RegisterData records that the concrete value (e.g. a query name or
// URL) is data of subject at the given level on axis label.
func (c *Classifier) RegisterData(value, subject, label string, level core.Level) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.data[value] = classEntry{level: level, subject: subject, label: label}
}

func (c *Classifier) classify(kind core.Kind, value string) (classEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	m := c.data
	if kind == core.Identity {
		m = c.identities
	}
	if e, ok := m[value]; ok {
		return e, true
	}
	return classEntry{level: core.NonSensitive}, false
}

// Ledger accumulates observations for one experiment run. The zero
// value is not usable; construct with New or NewRetaining. Ledger is
// safe for concurrent use — real-loopback systems observe from handler
// goroutines — and lock-striped per observer, so observers do not
// contend with each other when appending.
type Ledger struct {
	classifier *Classifier
	clock      func() time.Duration
	strs       *interner
	// retain keeps the record log; without it only the fold is kept.
	retain bool

	// seq is the global admission counter of retained records, their
	// total order across shards.
	seq atomic.Uint64

	// tel counts observations per observer when instrumented; nil by
	// default so Saw pays one pointer check.
	tel *telemetry.Telemetry

	mu     sync.RWMutex // guards the shards map, not the logs
	shards map[string]*shard
}

// New creates a fold-only ledger bound to a classifier: it keeps each
// observer's per-axis fold, distinct handles and observation count, and
// no observation log. clock may be nil; a fold-only ledger never reads
// it, since timestamps live only in the log.
func New(c *Classifier, clock func() time.Duration) *Ledger {
	return newLedger(c, clock, false)
}

// NewRetaining creates a ledger that also keeps every observation in
// compact form, for audits that read raw observations (Observations,
// ByObserver and the Evidence derivations). clock may be nil, in which
// case observations are timestamped zero; simulations pass their
// virtual clock so timing attacks can be evaluated.
func NewRetaining(c *Classifier, clock func() time.Duration) *Ledger {
	return newLedger(c, clock, true)
}

func newLedger(c *Classifier, clock func() time.Duration, retain bool) *Ledger {
	if c == nil {
		c = NewClassifier()
	}
	return &Ledger{classifier: c, clock: clock, strs: newInterner(), retain: retain, shards: map[string]*shard{}}
}

// Retaining reports whether the ledger keeps its observation log, i.e.
// whether it was built with NewRetaining.
func (l *Ledger) Retaining() bool { return l.retain }

// mustRetain panics when a raw-read method is called on a fold-only
// ledger: an empty answer would read as "nothing was observed".
func (l *Ledger) mustRetain(method string) {
	if !l.retain {
		panic("ledger: " + method + " reads the observation log, which a fold-only ledger does not keep; build it with ledger.NewRetaining")
	}
}

// Classifier returns the bound classifier.
func (l *Ledger) Classifier() *Classifier { return l.classifier }

// Instrument attaches a telemetry sink: every admitted observation
// increments a per-observer counter. Call before concurrent use; a nil
// tel is a no-op.
func (l *Ledger) Instrument(tel *telemetry.Telemetry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tel = tel
	if tel == nil {
		return
	}
	for name, s := range l.shards {
		s.obsCounter = observationCounter(tel, name)
	}
}

func observationCounter(tel *telemetry.Telemetry, observer string) *telemetry.Counter {
	m := tel.Metrics()
	if m == nil {
		return nil
	}
	return m.Counter(telemetry.MetricLedgerObservations,
		"Observations admitted per ledger shard (observer).",
		append(tel.BaseLabels(), telemetry.A("observer", observer))...)
}

// shardFor returns the observer's shard, creating it on first use. The
// fast path is a read-locked map lookup.
func (l *Ledger) shardFor(observer string) *shard {
	l.mu.RLock()
	s := l.shards[observer]
	l.mu.RUnlock()
	if s != nil {
		return s
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if s = l.shards[observer]; s == nil {
		s = &shard{name: observer, linked: map[uint32]struct{}{}}
		if l.tel != nil {
			s.obsCounter = observationCounter(l.tel, observer)
		}
		l.shards[observer] = s
	}
	return s
}

// lockAll acquires every shard lock in a stable order and returns the
// locked shards keyed by observer, giving cross-observer snapshot APIs a
// consistent point-in-time view. Callers must call the returned unlock.
func (l *Ledger) lockAll() (map[string]*shard, func()) {
	l.mu.RLock()
	names := make([]string, 0, len(l.shards))
	for name := range l.shards {
		names = append(names, name)
	}
	sort.Strings(names)
	shards := make(map[string]*shard, len(names))
	for _, name := range names {
		s := l.shards[name]
		s.mu.Lock()
		shards[name] = s
	}
	l.mu.RUnlock()
	return shards, func() {
		for _, name := range names {
			shards[name].mu.Unlock()
		}
	}
}

// Saw records that observer saw value of the given kind, with optional
// linkage handles. Classification (level, subject, axis label) comes
// from the classifier, never from the protocol code.
func (l *Ledger) Saw(observer string, kind core.Kind, value string, handles ...string) {
	l.SawBatch(observer, []Entry{{Kind: kind, Value: value, Handles: handles}})
}

// Entry is one observation in a SawBatch: what a single protocol step
// put in front of an observer.
type Entry struct {
	Kind    core.Kind
	Value   string
	Handles []string
}

// SawBatch admits a group of observations for one observer atomically:
// one shard-lock acquisition and one contiguous block of the global
// admission counter, instead of per-observation locking. Protocol steps
// that observe several values at once (a proxy seeing a client identity
// and a ciphertext on the same request) use this, which is what keeps
// shard contention flat when thousands of handler goroutines admit
// concurrently on the real transport.
//
// In a sequential run SawBatch assigns exactly the seq numbers the
// equivalent consecutive Saw calls would, so audit goldens are
// unaffected by converting call sites.
//
// Classification and interning happen before the shard lock is taken;
// under it each entry is folded into the shard's per-axis summary and
// handle set. Only a retaining ledger interns the observed value,
// subject and phase and appends the entry as a compact record.
func (l *Ledger) SawBatch(observer string, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	type pending struct {
		rec  record
		axis axis
		nh   int
	}
	var pendBuf [4]pending
	var idBuf [8]uint32
	pend, ids := pendBuf[:0], idBuf[:0]
	var r record
	if l.retain {
		if l.clock != nil {
			// One clock read for the batch: the entries describe a
			// single protocol step, observed at a single instant.
			r.time = l.clock()
		}
		if l.tel != nil { // one pointer check when uninstrumented
			r.phase = l.strs.id(l.tel.CurrentPhase())
		}
	}
	for _, in := range entries {
		e, recognized := l.classifier.classify(in.Kind, in.Value)
		if l.retain {
			r.value, r.subject = l.strs.id(in.Value), l.strs.id(e.subject)
		}
		r.level, r.recognized = uint8(e.level), recognized
		pend = append(pend, pending{rec: r, axis: axis{in.Kind, e.label}, nh: len(in.Handles)})
		for _, h := range in.Handles {
			ids = append(ids, l.strs.id(h))
		}
	}
	s := l.shardFor(observer)
	s.mu.Lock()
	var base uint64
	if l.retain {
		base = l.seq.Add(uint64(len(pend))) - uint64(len(pend))
	}
	for i, p := range pend {
		p.rec.seq = base + uint64(i) + 1
		s.admit(p.rec, p.axis, ids[:p.nh], l.retain)
		ids = ids[p.nh:]
	}
	s.mu.Unlock()
	s.obsCounter.Add(uint64(len(pend))) // nil-safe; nil unless instrumented
}

// SawIdentity is shorthand for Saw with core.Identity.
func (l *Ledger) SawIdentity(observer, value string, handles ...string) {
	l.Saw(observer, core.Identity, value, handles...)
}

// SawData is shorthand for Saw with core.Data.
func (l *Ledger) SawData(observer, value string, handles ...string) {
	l.Saw(observer, core.Data, value, handles...)
}

// Observations returns a copy of all recorded observations in global
// admission order, merged consistently across observer shards. It
// panics on a fold-only ledger.
func (l *Ledger) Observations() []Observation {
	l.mustRetain("Observations")
	shards, unlock := l.lockAll()
	var out []Observation
	for _, s := range shards {
		out = s.expandAll(l.strs, out)
	}
	unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].seq < out[j].seq })
	return out
}

// shard returns the observer's shard, nil if it never observed.
func (l *Ledger) shard(name string) *shard {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.shards[name]
}

// ByObserver returns the observations recorded by one entity, in the
// order the entity recorded them. It panics on a fold-only ledger.
func (l *Ledger) ByObserver(name string) []Observation {
	l.mustRetain("ByObserver")
	s := l.shard(name)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.expandAll(l.strs, nil)
}

// Len reports the number of recorded observations.
func (l *Ledger) Len() int {
	shards, unlock := l.lockAll()
	defer unlock()
	n := 0
	for _, s := range shards {
		n += s.n
	}
	return n
}

// ObserverStats summarizes one observer's shard: how many observations
// it admitted and how many distinct linkage handles it holds.
type ObserverStats struct {
	Observer     string
	Observations int
	Handles      int
}

// Stats summarizes the ledger's shard occupancy: per-observer counts
// (sorted by observer name) plus the total across shards. It is the
// cheap introspection surface behind cmd/experiments -stats.
type Stats struct {
	Observers []ObserverStats
	Total     int
}

// Stats computes a consistent point-in-time summary across all shards.
func (l *Ledger) Stats() Stats {
	shards, unlock := l.lockAll()
	defer unlock()
	var st Stats
	names := make([]string, 0, len(shards))
	for name := range shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := shards[name]
		st.Observers = append(st.Observers, ObserverStats{
			Observer:     name,
			Observations: s.n,
			Handles:      len(s.linked),
		})
		st.Total += s.n
	}
	return st
}

// Handles returns the sorted distinct linkage handles an entity holds.
func (l *Ledger) Handles(observer string) []string {
	var ids []uint32
	if s := l.shard(observer); s != nil {
		s.mu.Lock()
		ids = make([]uint32, 0, len(s.linked))
		for h := range s.linked {
			ids = append(ids, h)
		}
		s.mu.Unlock()
	}
	out := make([]string, len(ids))
	for i, h := range ids {
		out[i] = l.strs.str(h)
	}
	sort.Strings(out)
	return out
}

// DeriveTuple computes an entity's empirical knowledge tuple using the
// template's axes: for each (kind, label) component in template, the
// level is the maximum observed on that axis (NonSensitive if the entity
// saw nothing there). Observations of Sensitive or Partial level on axes
// absent from the template are appended, so unexpected leaks surface as
// extra components rather than vanishing. It is a projection of the
// observer's admission-time fold, costing O(axes) however many
// observations the entity admitted.
func (l *Ledger) DeriveTuple(observer string, template core.Tuple) core.Tuple {
	comps := l.derive(observer, template, false)
	out := make(core.Tuple, len(comps))
	for i, c := range comps {
		out[i] = c.Component
	}
	return out
}

// derive is the one tuple derivation: template axes first, then the
// off-template axes holding Sensitive or Partial knowledge, sorted by
// kind then label. Levels and AxisTotal come from the shard's fold;
// with evidence set, each component also lists the observations at its
// level, in admission order.
func (l *Ledger) derive(observer string, template core.Tuple, evidence bool) []ComponentEvidence {
	var axes []axisFold
	var support [][]Observation
	if s := l.shard(observer); s != nil {
		s.mu.Lock()
		axes = append(axes, s.axes...)
		if evidence {
			support = make([][]Observation, len(axes))
			var arena []string
			for i := 0; i < s.recs.len(); i++ {
				if r := s.recs.at(i); core.Level(r.level) == axes[r.axis].max {
					support[r.axis] = append(support[r.axis], s.expand(l.strs, i, &arena))
				}
			}
		}
		s.mu.Unlock()
	}
	out := make([]ComponentEvidence, 0, len(template))
	add := func(k core.Kind, label string, i int, extra bool) {
		c := ComponentEvidence{Component: core.Component{Kind: k, Label: label}, Extra: extra}
		if i >= 0 {
			c.Component.Level, c.AxisTotal = axes[i].max, axes[i].count
			if evidence {
				c.Evidence = support[i]
			}
		}
		out = append(out, c)
	}
	covered := make([]bool, len(axes))
	for _, c := range template {
		i := slices.IndexFunc(axes, func(f axisFold) bool { return f.axis == axis{c.Kind, c.Label} })
		if i >= 0 {
			covered[i] = true
		}
		add(c.Kind, c.Label, i, false)
	}
	// Surface unexpected sensitive/partial knowledge. Fold axes are
	// unique per (kind, label), so kind then label is a total order.
	var extras []int
	for i, f := range axes {
		if !covered[i] && f.max > core.NonSensitive {
			extras = append(extras, i)
		}
	}
	sort.Slice(extras, func(x, y int) bool {
		a, b := axes[extras[x]], axes[extras[y]]
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.label < b.label
	})
	for _, i := range extras {
		add(axes[i].kind, axes[i].label, i, true)
	}
	return out
}

// DeriveSystem builds a measured core.System shaped like expected: same
// entities, tuples derived from observations, links set to each entity's
// observed handles. The user entity keeps its modeled tuple (the user
// trivially knows their own identity and data; implementations do not
// instrument the user observing themself). Shared-secret structures are
// copied from the expected model — they describe the protocol's algebra,
// not an observation.
func (l *Ledger) DeriveSystem(expected *core.System) *core.System {
	out := &core.System{
		Name:          expected.Name + " (measured)",
		Section:       expected.Section,
		SharedSecrets: expected.SharedSecrets,
		Notes:         "derived from runtime observations",
	}
	for _, e := range expected.Entities {
		ne := core.Entity{Name: e.Name, User: e.User}
		if e.User {
			ne.Knows = e.Knows
		} else {
			ne.Knows = l.DeriveTuple(e.Name, e.Knows)
			ne.Links = l.Handles(e.Name)
		}
		out.Entities = append(out.Entities, ne)
	}
	return out
}

// Hash produces a stable linkage handle from wire bytes: two entities
// that saw the same bytes (and only they) share the handle. Truncated
// SHA-256, hex-encoded.
func Hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// ConnHandle produces a linkage handle for a shared connection or
// session named by both endpoints, e.g. ConnHandle("client7", "relay1").
func ConnHandle(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
