package ledger

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"decoupling/internal/core"
)

// benchLedger populates a ledger built by newLedger shaped like a
// mid-size experiment: `observers` entities, `per` observations each,
// two handles per observation.
func benchLedger(newLedger func(*Classifier, func() time.Duration) *Ledger, observers, per int) (*Ledger, *core.System) {
	cls := NewClassifier()
	lg := newLedger(cls, nil)
	sys := &core.System{Name: "bench"}
	sys.Entities = append(sys.Entities, core.Entity{
		Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()},
	})
	for o := 0; o < observers; o++ {
		name := fmt.Sprintf("ent-%d", o)
		sys.Entities = append(sys.Entities, core.Entity{
			Name: name, Knows: core.Tuple{core.SensID(), core.NonSensData()},
		})
		for i := 0; i < per; i++ {
			who := fmt.Sprintf("subject-%d", i%16)
			cls.RegisterIdentity(who, who, "", core.Sensitive)
			lg.SawIdentity(name, who, fmt.Sprintf("conn-%d-%d", o, i), fmt.Sprintf("sess-%d", i%8))
		}
	}
	return lg, sys
}

// BenchmarkSawUninstrumented pins the default hot path: a fold-only
// ledger with no telemetry attached pays the classify, the handle
// interning and the shard fold, nothing more.
func BenchmarkSawUninstrumented(b *testing.B) {
	cls := NewClassifier()
	cls.RegisterIdentity("alice", "alice", "", core.Sensitive)
	lg := New(cls, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.SawIdentity("ent", "alice", "h1")
	}
}

// BenchmarkDeriveSystem is the provenance-disabled derivation path the
// audit layer must not slow down: regressions here mean DeriveTuple
// picked up provenance bookkeeping it should only do in the Evidence
// variants.
func BenchmarkDeriveSystem(b *testing.B) {
	lg, sys := benchLedger(New, 4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := lg.DeriveSystem(sys); len(m.Entities) != len(sys.Entities) {
			b.Fatal("bad derivation")
		}
	}
}

// BenchmarkDeriveSystemEvidence measures the provenance-carrying
// variant for comparison; it is allowed to cost more — it is run once
// per audit, never on the reproduction hot path.
func BenchmarkDeriveSystemEvidence(b *testing.B) {
	lg, sys := benchLedger(NewRetaining, 4, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ev := lg.DeriveSystemEvidence(sys); len(ev.Entities) != len(sys.Entities) {
			b.Fatal("bad derivation")
		}
	}
}

// BenchmarkSawBatchParallel admits an ODoH-shaped stream from every
// benchmark goroutine at once: per op, a proxy, a target and an origin
// each admit one two-entry batch — a connection identity drawn from a
// small shared pool, carrying shared connection handles, plus one
// unique ciphertext value. The observers' shards and the intern table
// are shared by all goroutines, so contention on either shows as ns/op.
// B/obs is the live heap the admitted observations hold, measured after
// a forced GC; allocs/op include building the unique value. The fold
// sub-benchmark runs the default fold-only ledger, retain the one that
// also keeps the record log.
func BenchmarkSawBatchParallel(b *testing.B) {
	b.Run("fold", func(b *testing.B) { benchSawBatchParallel(b, New) })
	b.Run("retain", func(b *testing.B) { benchSawBatchParallel(b, NewRetaining) })
}

func benchSawBatchParallel(b *testing.B, newLedger func(*Classifier, func() time.Duration) *Ledger) {
	const conns = 16
	observers := []string{"Proxy", "Target", "Origin"}
	cls := NewClassifier()
	addrs := make([]string, conns)
	legs := make([][]string, conns)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.%d.%d:443", i/256, i%256)
		cls.RegisterIdentity(addrs[i], addrs[i], "", core.Sensitive)
		legs[i] = []string{ConnHandle(addrs[i], "Proxy"), ConnHandle("Proxy", "Target")}
	}
	lg := newLedger(cls, nil)
	var next atomic.Uint64

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			n := next.Add(1)
			c := int(n % conns)
			for _, o := range observers {
				lg.SawBatch(o, []Entry{
					{Kind: core.Identity, Value: addrs[c], Handles: legs[c][:1]},
					{Kind: core.Data, Value: "ciphertext:" + strconv.FormatUint(n, 16) + o, Handles: legs[c]},
				})
			}
		}
	})
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if obs := lg.Len(); obs > 0 {
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(obs), "B/obs")
	}
	runtime.KeepAlive(lg)
}
