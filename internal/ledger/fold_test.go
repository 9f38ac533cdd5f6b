package ledger

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"decoupling/internal/core"
)

// TestFoldOnlyRawReadsPanic: every method that reads the observation
// log must fail loudly on a fold-only ledger, naming the constructor
// that keeps the log, rather than answer as if nothing was observed.
func TestFoldOnlyRawReadsPanic(t *testing.T) {
	sys := core.ObliviousDNS()
	reads := map[string]func(*Ledger){
		"Observations":         func(l *Ledger) { l.Observations() },
		"ByObserver":           func(l *Ledger) { l.ByObserver("Proxy") },
		"DeriveTupleEvidence":  func(l *Ledger) { l.DeriveTupleEvidence("Proxy", nil) },
		"LinkEvidenceFor":      func(l *Ledger) { l.LinkEvidenceFor("Proxy") },
		"DeriveSystemEvidence": func(l *Ledger) { l.DeriveSystemEvidence(sys) },
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			l := newTestLedger()
			l.SawIdentity("Proxy", "10.0.0.7", "conn-1")
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, name) || !strings.Contains(msg, "NewRetaining") {
					t.Errorf("%s on a fold-only ledger: panic %q, want one naming %s and NewRetaining", name, msg, name)
				}
			}()
			read(l)
		})
	}
}

// heapAfterGC is the live heap once garbage is collected.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFoldOnlyHeapFlat is the bounded-memory gate: with a fixed
// population of observers, subjects and handles and a unique data value
// on every observation (an ODoH ciphertext digest), a fold-only ledger's
// live heap must not grow with run length. The same stream into a
// retaining ledger is the control that shows the measurement can fail.
func TestFoldOnlyHeapFlat(t *testing.T) {
	const (
		n        = 20_000
		subjects = 64
		slack    = 64 << 10 // runtime noise, not per-observation growth
		minRetB  = 50       // bytes per observation a retaining log holds
	)
	cls := NewClassifier()
	addrs := make([]string, subjects)
	legs := make([][]string, subjects)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.1.%d.%d:443", i/256, i%256)
		cls.RegisterIdentity(addrs[i], addrs[i], "", core.Sensitive)
		legs[i] = []string{ConnHandle(addrs[i], "Proxy"), ConnHandle("Proxy", "Target")}
	}
	admit := func(l *Ledger, from, to int) {
		for i := from; i < to; i++ {
			c := i % subjects
			l.SawBatch("Proxy", []Entry{
				{Kind: core.Identity, Value: addrs[c], Handles: legs[c][:1]},
				{Kind: core.Data, Value: fmt.Sprintf("ciphertext:%08x", i), Handles: legs[c]},
			})
		}
	}
	// growth admits n batches, then 3n more, and returns the live heap
	// gained over the second stretch, per observation.
	growth := func(l *Ledger) (total int64, perObs float64) {
		admit(l, 0, n)
		before := heapAfterGC()
		admit(l, n, 4*n)
		total = heapAfterGC() - before
		runtime.KeepAlive(l)
		return total, float64(total) / float64(2*3*n)
	}

	total, per := growth(New(cls, nil))
	t.Logf("fold-only: %d B from N to 4N observations (%.2f B/obs)", total, per)
	if total >= slack {
		t.Errorf("fold-only ledger grew %d B (%.1f B/obs) from N to 4N observations; want < %d B", total, per, slack)
	}
	total, per = growth(NewRetaining(cls, nil))
	t.Logf("retaining: %d B from N to 4N observations (%.2f B/obs)", total, per)
	if per <= minRetB {
		t.Errorf("control: retaining ledger grew only %d B (%.1f B/obs); the gate cannot tell retention from a fold", total, per)
	}
}
