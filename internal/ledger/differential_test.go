package ledger

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"decoupling/internal/core"
	"decoupling/internal/telemetry"
)

// refLedger is the naive model the compact store must agree with: a
// plain []Observation log, derived from by full scans.
type refLedger struct{ obs []Observation }

func (r *refLedger) byObserver(name string) []Observation {
	var out []Observation
	for _, o := range r.obs {
		if o.Observer == name {
			out = append(out, o)
		}
	}
	return out
}

func (r *refLedger) handles(name string) []string {
	set := map[string]bool{}
	for _, o := range r.byObserver(name) {
		for _, h := range o.Handles {
			set[h] = true
		}
	}
	out := make([]string, 0, len(set))
	for h := range set {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

func (r *refLedger) stats() Stats {
	var st Stats
	var names []string
	count := map[string]int{}
	for _, o := range r.obs {
		if count[o.Observer] == 0 {
			names = append(names, o.Observer)
		}
		count[o.Observer]++
	}
	sort.Strings(names)
	for _, n := range names {
		st.Observers = append(st.Observers, ObserverStats{Observer: n, Observations: count[n], Handles: len(r.handles(n))})
		st.Total += count[n]
	}
	return st
}

// deriveEvidence is the derivation by full scan: per-axis max level,
// the observations at it, template axes first, then off-template
// Sensitive/Partial axes sorted by kind and label.
func (r *refLedger) deriveEvidence(name string, template core.Tuple) []ComponentEvidence {
	maxLevel := map[axis]core.Level{}
	byAxis := map[axis][]Observation{}
	for _, o := range r.byObserver(name) {
		a := axis{o.Kind, o.Label}
		if o.Level > maxLevel[a] {
			maxLevel[a] = o.Level
		}
		byAxis[a] = append(byAxis[a], o)
	}
	comp := func(a axis, extra bool) ComponentEvidence {
		c := ComponentEvidence{
			Component: core.Component{Kind: a.kind, Label: a.label, Level: maxLevel[a]},
			Extra:     extra,
			AxisTotal: len(byAxis[a]),
		}
		for _, o := range byAxis[a] {
			if o.Level == maxLevel[a] {
				c.Evidence = append(c.Evidence, o)
			}
		}
		return c
	}
	covered := map[axis]bool{}
	out := make([]ComponentEvidence, 0, len(template))
	for _, c := range template {
		a := axis{c.Kind, c.Label}
		covered[a] = true
		out = append(out, comp(a, false))
	}
	var extras []axis
	for a, lvl := range maxLevel {
		if !covered[a] && lvl > core.NonSensitive {
			extras = append(extras, a)
		}
	}
	sort.Slice(extras, func(i, j int) bool {
		if extras[i].kind != extras[j].kind {
			return extras[i].kind < extras[j].kind
		}
		return extras[i].label < extras[j].label
	})
	for _, a := range extras {
		out = append(out, comp(a, true))
	}
	return out
}

// deriveSystem is DeriveSystem by full scan: the user keeps its modeled
// tuple, every other entity gets its derived tuple and handles.
func (r *refLedger) deriveSystem(expected *core.System) *core.System {
	out := &core.System{Name: expected.Name + " (measured)", Section: expected.Section,
		SharedSecrets: expected.SharedSecrets, Notes: "derived from runtime observations"}
	for _, e := range expected.Entities {
		ne := core.Entity{Name: e.Name, User: e.User, Knows: e.Knows}
		if !e.User {
			ne.Knows = make(core.Tuple, 0, len(e.Knows))
			for _, c := range r.deriveEvidence(e.Name, e.Knows) {
				ne.Knows = append(ne.Knows, c.Component)
			}
			ne.Links = r.handles(e.Name)
		}
		out.Entities = append(out.Entities, ne)
	}
	return out
}

func (r *refLedger) linkEvidence(name string) []LinkEvidence {
	byHandle := map[string][]Observation{}
	for _, o := range r.byObserver(name) {
		seen := map[string]bool{}
		for _, h := range o.Handles {
			if !seen[h] {
				seen[h] = true
				byHandle[h] = append(byHandle[h], o)
			}
		}
	}
	out := make([]LinkEvidence, 0, len(byHandle))
	for _, h := range r.handles(name) {
		out = append(out, LinkEvidence{Handle: h, Evidence: byHandle[h]})
	}
	return out
}

// FuzzLedgerMatchesReference drives a seeded random stream of Saw and
// SawBatch calls through a retaining ledger, a fold-only ledger and the
// naive reference, then checks every read API agrees: the retaining
// ledger on everything, the fold-only one on every fold projection.
// Streams mix registered and unregistered values, re-registration
// mid-stream (classification is fixed at admission), empty and repeated
// handles, the clock on or off, and telemetry phases on or off.
func FuzzLedgerMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		f.Add(seed, uint16(40+seed*17))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint16) {
		rng := rand.New(rand.NewSource(seed))
		observers := []string{"Proxy", "Target", "Origin", "Mix 1"}[:1+rng.Intn(4)]
		values := []string{"", "10.0.0.7", "10.0.0.8", "q.example", "p.example", "blob", "ciphertext:ab"}
		handles := []string{"", "h1", "h2", "conn-a", "conn-b", "recursion:q.example"}
		labels := []string{"", "H", "N"}

		cls := NewClassifier()
		register := func() {
			v := values[rng.Intn(len(values))]
			lab, lvl := labels[rng.Intn(len(labels))], core.Level(rng.Intn(3))
			subj := []string{"", "alice", "bob"}[rng.Intn(3)]
			if rng.Intn(2) == 0 {
				cls.RegisterIdentity(v, subj, lab, lvl)
			} else {
				cls.RegisterData(v, subj, lab, lvl)
			}
		}
		for i := 0; i < 4; i++ {
			register()
		}

		var clock func() time.Duration
		var tick time.Duration
		if rng.Intn(2) == 0 {
			clock = func() time.Duration { tick += time.Millisecond; return tick }
		}
		// Both ledgers share the clock, so a fold-only admission that
		// read it would shift the retaining ledger's timestamps.
		lg, fold := NewRetaining(cls, clock), New(cls, clock)
		var tel *telemetry.Telemetry
		if rng.Intn(2) == 0 {
			tel = telemetry.New(nil)
			lg.Instrument(tel)
			fold.Instrument(tel)
		}
		ref := &refLedger{}
		var endPhase func()

		entry := func() Entry {
			e := Entry{Kind: core.Kind(rng.Intn(2))}
			if rng.Intn(4) == 0 {
				e.Value = fmt.Sprintf("ciphertext:%x", rng.Int63()) // unique, unregistered
			} else {
				e.Value = values[rng.Intn(len(values))]
			}
			for n := rng.Intn(4); n > 0; n-- {
				e.Handles = append(e.Handles, handles[rng.Intn(len(handles))])
			}
			return e
		}
		admit := func(observer string, entries []Entry) {
			var at time.Duration
			if clock != nil {
				at = tick + time.Millisecond // the one clock read this admission makes
			}
			var ph string
			if tel != nil {
				ph = tel.CurrentPhase()
			}
			for _, in := range entries {
				e, ok := cls.classify(in.Kind, in.Value)
				o := Observation{
					Observer: observer, Kind: in.Kind, Label: e.label, Level: e.level,
					Subject: e.subject, Value: in.Value, Time: at, Recognized: ok, Phase: ph,
					seq: uint64(len(ref.obs) + 1),
				}
				if len(in.Handles) > 0 {
					o.Handles = append([]string(nil), in.Handles...)
				}
				ref.obs = append(ref.obs, o)
			}
		}

		for step := 0; step < int(steps%400); step++ {
			observer := observers[rng.Intn(len(observers))]
			switch op := rng.Intn(10); {
			case op < 4:
				e := entry()
				admit(observer, []Entry{e})
				lg.Saw(observer, e.Kind, e.Value, e.Handles...)
				fold.Saw(observer, e.Kind, e.Value, e.Handles...)
			case op < 8:
				entries := make([]Entry, rng.Intn(4))
				for i := range entries {
					entries[i] = entry()
				}
				if len(entries) > 0 {
					admit(observer, entries)
				}
				lg.SawBatch(observer, entries)
				fold.SawBatch(observer, entries)
			case op == 8:
				register()
			case tel != nil:
				if endPhase == nil {
					endPhase = tel.Phase(fmt.Sprintf("p%d", step))
				} else {
					endPhase()
					endPhase = nil
				}
			}
		}

		if got := lg.Observations(); !reflect.DeepEqual(got, ref.obs) {
			t.Fatalf("Observations diverged:\n got %+v\nwant %+v", got, ref.obs)
		}
		if got, want := lg.Stats(), ref.stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("Stats = %+v, want %+v", got, want)
		}
		if got, want := lg.Len(), len(ref.obs); got != want {
			t.Errorf("Len = %d, want %d", got, want)
		}
		if got, want := fold.Stats(), ref.stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("fold-only Stats = %+v, want %+v", got, want)
		}
		if got, want := fold.Len(), len(ref.obs); got != want {
			t.Errorf("fold-only Len = %d, want %d", got, want)
		}
		templates := []core.Tuple{
			nil,
			{core.NonSensID(), core.NonSensData()},
			{core.SensID("H"), core.NonSensData("N"), core.SensID("H")},
		}
		for _, name := range append(observers, "Nobody") {
			if got, want := lg.ByObserver(name), ref.byObserver(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: ByObserver diverged:\n got %+v\nwant %+v", name, got, want)
			}
			if got, want := lg.Handles(name), ref.handles(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Handles = %q, want %q", name, got, want)
			}
			if got, want := fold.Handles(name), ref.handles(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: fold-only Handles = %q, want %q", name, got, want)
			}
			if got, want := lg.LinkEvidenceFor(name), ref.linkEvidence(name); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: LinkEvidenceFor diverged:\n got %+v\nwant %+v", name, got, want)
			}
			for _, tmpl := range templates {
				want := ref.deriveEvidence(name, tmpl)
				if got := lg.DeriveTupleEvidence(name, tmpl); !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v: DeriveTupleEvidence diverged:\n got %+v\nwant %+v", name, tmpl, got, want)
				}
				tuple := lg.DeriveTuple(name, tmpl)
				if len(tuple) != len(want) {
					t.Fatalf("%s %v: DeriveTuple has %d components, want %d", name, tmpl, len(tuple), len(want))
				}
				for i, c := range tuple {
					if c != want[i].Component {
						t.Errorf("%s %v: DeriveTuple[%d] = %+v, want %+v", name, tmpl, i, c, want[i].Component)
					}
				}
				if got := fold.DeriveTuple(name, tmpl); !reflect.DeepEqual(got, tuple) {
					t.Errorf("%s %v: fold-only DeriveTuple = %v, retaining %v", name, tmpl, got, tuple)
				}
			}
		}
		sys := &core.System{Name: "diff", Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
		}}
		for _, name := range append(observers, "Nobody") {
			sys.Entities = append(sys.Entities, core.Entity{Name: name, Knows: templates[rng.Intn(len(templates))]})
		}
		want := ref.deriveSystem(sys)
		if got := lg.DeriveSystem(sys); !reflect.DeepEqual(got, want) {
			t.Errorf("DeriveSystem diverged:\n got %+v\nwant %+v", got, want)
		}
		if got := fold.DeriveSystem(sys); !reflect.DeepEqual(got, want) {
			t.Errorf("fold-only DeriveSystem diverged:\n got %+v\nwant %+v", got, want)
		}
	})
}
