package wiretrace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

// audit.go holds the trace plane to the decoupling principle: the
// observability layer is itself a set of vantage points, so it gets
// the same adversarial analysis as the protocol. Each vantage's span
// store is replayed as a knowledge ledger — observed values with the
// span's trace IDs as linkage handles — and compared to the protocol
// ledger on two axes:
//
//  1. Knowledge tuples. For every non-user entity, the tuple derived
//     from its span store must not exceed the tuple derived from its
//     protocol observations. For instrumented vantages the audit
//     demands exact equality: the trace plane knows what the protocol
//     knows, no more and no less.
//
//  2. Coalition linkage. For every coalition of non-user entities, the
//     subjects linkable through shared trace handles must be a subset
//     of those linkable through shared protocol handles. A subject the
//     trace plane links that the protocol keeps unlinked is a widening
//     — the tracing system has re-coupled what the architecture
//     decoupled — and the verdict is COUPLED.
//
// Under ModeRotate both axes hold by construction: a trace ID names
// one link, so the handle graph of the trace ledger is isomorphic to
// the protocol's hop-local wire-byte hashes. Under ModeNaive one trace
// ID spans the path, handing (for example) a mixnet's entry mix and
// its receiver — or an ODoH proxy and the origin — a join key the
// protocol never gives them. The audit exists to convict exactly that.

// EntityAudit compares one entity's two knowledge tuples.
type EntityAudit struct {
	Name         string
	Instrumented bool // has at least one span
	Proto        core.Tuple
	Trace        core.Tuple
	// Widened: the trace tuple holds a component above the protocol
	// tuple — the trace plane leaked knowledge. Always a violation.
	Widened bool
	// Narrowed: the trace tuple is strictly below the protocol tuple.
	// Legal (sampling, uninstrumented vantages) but reported.
	Narrowed bool
}

// CoalitionLeak is one subject a coalition links via trace handles but
// not via protocol handles.
type CoalitionLeak struct {
	Coalition []string
	Subject   string
}

// Report is the trace-plane audit outcome.
type Report struct {
	Mode      Mode
	Spans     int
	Entities  []EntityAudit
	Leaks     []CoalitionLeak
	Decoupled bool
}

// maxCoalitionEntities bounds the power-set sweep; every E1–E9 system
// has at most a handful of non-user entities.
const maxCoalitionEntities = 16

// Audit replays the plane's span stores as a knowledge ledger and
// holds it to the protocol ledger's knowledge, entity by entity and
// coalition by coalition. expected supplies the entity set and the
// per-entity tuple templates (the same ones the protocol's measured
// tuples derive against).
func Audit(p *Plane, lg *ledger.Ledger, expected *core.System) (*Report, error) {
	if !p.Enabled() {
		return nil, fmt.Errorf("wiretrace: audit needs an enabled trace plane")
	}
	if lg == nil || expected == nil {
		return nil, fmt.Errorf("wiretrace: audit needs a protocol ledger and an expected system")
	}
	if !lg.Retaining() {
		return nil, fmt.Errorf("wiretrace: audit needs the protocol ledger's observations; build it with ledger.NewRetaining")
	}
	traceLG := TraceLedger(p, lg.Classifier())

	rep := &Report{Mode: p.Mode(), Spans: p.SpanCount(), Decoupled: true}

	var names []string
	for _, e := range expected.Entities {
		if e.User {
			continue
		}
		names = append(names, e.Name)
		ent := EntityAudit{
			Name:         e.Name,
			Instrumented: storeHasSpans(p, e.Name),
			Proto:        lg.DeriveTuple(e.Name, e.Knows),
			Trace:        traceLG.DeriveTuple(e.Name, e.Knows),
		}
		ent.Widened, ent.Narrowed = compareTuples(ent.Proto, ent.Trace)
		if ent.Widened {
			rep.Decoupled = false
		}
		rep.Entities = append(rep.Entities, ent)
	}

	if len(names) > maxCoalitionEntities {
		return nil, fmt.Errorf("wiretrace: %d entities exceeds the %d-entity coalition sweep bound",
			len(names), maxCoalitionEntities)
	}
	sort.Strings(names)
	protoObs := lg.Observations()
	traceObs := traceLG.Observations()
	for mask := 1; mask < 1<<len(names); mask++ {
		var coalition []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				coalition = append(coalition, n)
			}
		}
		protoLinked := linkedSet(protoObs, coalition)
		for _, r := range adversary.LinkSubjects(traceObs, coalition) {
			if r.Linked && !protoLinked[r.Subject] {
				rep.Leaks = append(rep.Leaks, CoalitionLeak{Coalition: coalition, Subject: r.Subject})
				rep.Decoupled = false
			}
		}
	}
	sort.Slice(rep.Leaks, func(i, j int) bool {
		a, b := rep.Leaks[i], rep.Leaks[j]
		if len(a.Coalition) != len(b.Coalition) {
			return len(a.Coalition) < len(b.Coalition)
		}
		ac, bc := strings.Join(a.Coalition, ","), strings.Join(b.Coalition, ",")
		if ac != bc {
			return ac < bc
		}
		return a.Subject < b.Subject
	})
	return rep, nil
}

// TraceLedger converts the plane's span stores into a knowledge
// ledger: every observed value becomes an observation by its vantage,
// with the span's trace IDs as the linkage handles. The classifier is
// shared with the protocol ledger so sensitivity and subjects match.
func TraceLedger(p *Plane, cls *ledger.Classifier) *ledger.Ledger {
	traceLG := ledger.NewRetaining(cls, nil)
	if !p.Enabled() {
		return traceLG
	}
	for _, st := range p.Stores() {
		var entries []ledger.Entry
		for _, sp := range st.Spans() {
			if len(sp.Values) == 0 {
				continue
			}
			handles := []string{sp.Trace.String()}
			if !sp.RotatedTo.IsZero() {
				handles = append(handles, sp.RotatedTo.String())
			}
			for _, v := range sp.Values {
				entries = append(entries, ledger.Entry{Kind: v.Kind, Value: v.Value, Handles: handles})
			}
		}
		if len(entries) > 0 {
			traceLG.SawBatch(st.Vantage, entries)
		}
	}
	return traceLG
}

func storeHasSpans(p *Plane, vantage string) bool {
	for _, st := range p.Stores() {
		if st.Vantage == vantage {
			return st.Len() > 0
		}
	}
	return false
}

func linkedSet(obs []ledger.Observation, coalition []string) map[string]bool {
	out := map[string]bool{}
	for _, r := range adversary.LinkSubjects(obs, coalition) {
		if r.Linked {
			out[r.Subject] = true
		}
	}
	return out
}

// compareTuples reports whether trace exceeds proto on any component
// (widened) and whether it falls below on any (narrowed). The tuples
// derive from the same template, so components align positionally;
// defensively, a length mismatch counts as both.
func compareTuples(proto, trace core.Tuple) (widened, narrowed bool) {
	n := len(proto)
	if len(trace) != len(proto) {
		widened, narrowed = true, true
		if len(trace) < n {
			n = len(trace)
		}
	}
	for i := 0; i < n; i++ {
		if trace[i].Level > proto[i].Level {
			widened = true
		}
		if trace[i].Level < proto[i].Level {
			narrowed = true
		}
	}
	return widened, narrowed
}

// WriteReport renders the audit deterministically.
func (r *Report) WriteReport(w io.Writer) {
	verdict := "DECOUPLED"
	if !r.Decoupled {
		verdict = "COUPLED"
	}
	fmt.Fprintf(w, "trace-plane audit: mode=%s spans=%d verdict=%s\n", r.Mode, r.Spans, verdict)
	for _, e := range r.Entities {
		status := "equal"
		switch {
		case e.Widened:
			status = "WIDENED"
		case !e.Instrumented:
			status = "uninstrumented"
		case e.Narrowed:
			status = "narrowed"
		}
		fmt.Fprintf(w, "  %-22s proto=%s trace=%s %s\n", e.Name, e.Proto.Symbol(), e.Trace.Symbol(), status)
	}
	for _, l := range r.Leaks {
		fmt.Fprintf(w, "  LEAK coalition {%s} links subject %s via trace handles only\n",
			strings.Join(l.Coalition, ", "), l.Subject)
	}
}
