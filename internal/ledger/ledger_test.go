package ledger

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"decoupling/internal/core"
)

func testClassifier() *Classifier {
	c := NewClassifier()
	c.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
	c.RegisterIdentity("proxy.example", "", "", core.NonSensitive)
	c.RegisterData("secret-query.example.com", "alice", "", core.Sensitive)
	c.RegisterData("example.com", "alice", "", core.Partial)
	return c
}

func newTestLedger() *Ledger { return New(testClassifier(), nil) }

func TestClassifierDrivesLevels(t *testing.T) {
	l := NewRetaining(testClassifier(), nil)
	l.SawIdentity("Proxy", "10.0.0.7")
	l.SawData("Proxy", "3fa9c1-ciphertext") // unregistered -> non-sensitive
	l.SawData("Target", "secret-query.example.com")

	obs := l.Observations()
	if len(obs) != 3 {
		t.Fatalf("got %d observations", len(obs))
	}
	if obs[0].Level != core.Sensitive || obs[0].Subject != "alice" {
		t.Errorf("client address observation misclassified: %+v", obs[0])
	}
	if obs[1].Level != core.NonSensitive {
		t.Errorf("ciphertext observation misclassified: %+v", obs[1])
	}
	if obs[2].Level != core.Sensitive {
		t.Errorf("plaintext query misclassified: %+v", obs[2])
	}
}

func TestDeriveTupleMatchesODoHShape(t *testing.T) {
	l := newTestLedger()
	// Proxy sees client address + ciphertext; target sees proxy address +
	// plaintext query.
	l.SawIdentity("Proxy", "10.0.0.7")
	l.SawData("Proxy", "ciphertext-blob")
	l.SawIdentity("Target", "proxy.example")
	l.SawData("Target", "secret-query.example.com")

	template := core.Tuple{core.NonSensID(), core.NonSensData()}
	proxy := l.DeriveTuple("Proxy", template)
	if !proxy.Equal(core.Tuple{core.SensID(), core.NonSensData()}) {
		t.Errorf("proxy tuple = %s, want (▲, ⊙)", proxy.Symbol())
	}
	target := l.DeriveTuple("Target", template)
	if !target.Equal(core.Tuple{core.NonSensID(), core.SensData()}) {
		t.Errorf("target tuple = %s, want (△, ●)", target.Symbol())
	}
}

func TestDeriveTupleTakesMaxLevel(t *testing.T) {
	l := newTestLedger()
	l.SawData("Relay", "ciphertext")
	l.SawData("Relay", "example.com") // partial
	got := l.DeriveTuple("Relay", core.Tuple{core.NonSensData()})
	if !got.Equal(core.Tuple{core.PartialData()}) {
		t.Errorf("tuple = %s, want (⊙/●)", got.Symbol())
	}
	l.SawData("Relay", "secret-query.example.com")
	got = l.DeriveTuple("Relay", core.Tuple{core.NonSensData()})
	if !got.Equal(core.Tuple{core.SensData()}) {
		t.Errorf("tuple = %s, want (●)", got.Symbol())
	}
}

// TestDeriveTupleSurfacesUnexpectedLeaks: a sensitive observation on an
// axis the template does not contain must appear as an extra component,
// so a leaky implementation cannot silently pass comparison.
func TestDeriveTupleSurfacesUnexpectedLeaks(t *testing.T) {
	c := NewClassifier()
	c.RegisterIdentity("imsi-001", "bob", "N", core.Sensitive)
	l := New(c, nil)
	l.SawIdentity("Gateway", "imsi-001")

	template := core.Tuple{core.SensID("H"), core.NonSensData()}
	got := l.DeriveTuple("Gateway", template)
	if len(got) != 3 {
		t.Fatalf("tuple = %s, want extra ▲_N component", got.Symbol())
	}
	found := false
	for _, comp := range got {
		if comp.Label == "N" && comp.Level == core.Sensitive {
			found = true
		}
	}
	if !found {
		t.Errorf("leak not surfaced: %s", got.Symbol())
	}
}

func TestDeriveTupleEmptyObserver(t *testing.T) {
	l := newTestLedger()
	template := core.Tuple{core.SensID(), core.SensData()}
	got := l.DeriveTuple("Nobody", template)
	want := core.Tuple{core.NonSensID(), core.NonSensData()}
	if !got.Equal(want) {
		t.Errorf("tuple = %s, want %s", got.Symbol(), want.Symbol())
	}
}

func TestDeriveSystem(t *testing.T) {
	l := newTestLedger()
	l.SawIdentity("Resolver", "10.0.0.7", "leg-a")
	l.SawData("Resolver", "ciphertext", "leg-a", "leg-b")
	l.SawIdentity("Oblivious Resolver", "proxy.example", "leg-b")
	l.SawData("Oblivious Resolver", "secret-query.example.com", "leg-b")
	l.SawIdentity("Origin", "resolver.addr")
	l.SawData("Origin", "secret-query.example.com")

	expected := core.ObliviousDNS()
	measured := l.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured system diverges from paper table: %v", diffs)
	}
	// The user entity keeps its modeled tuple.
	if !measured.User().Knows.Equal(expected.User().Knows) {
		t.Error("user tuple not preserved")
	}
	// Links come from observed handles.
	res := measured.Entity("Resolver")
	if !reflect.DeepEqual(res.Links, []string{"leg-a", "leg-b"}) {
		t.Errorf("resolver links = %v", res.Links)
	}
	// The measured system should itself analyze as decoupled, with the
	// resolver+oblivious-resolver coalition re-coupling via leg-b.
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Decoupled || v.Degree != 2 {
		t.Errorf("measured verdict = %+v", v)
	}
}

func TestHandles(t *testing.T) {
	l := newTestLedger()
	l.SawData("A", "x", "h2", "h1")
	l.SawData("A", "y", "h1", "h3")
	got := l.Handles("A")
	if !reflect.DeepEqual(got, []string{"h1", "h2", "h3"}) {
		t.Errorf("Handles = %v", got)
	}
	if h := l.Handles("B"); len(h) != 0 {
		t.Errorf("Handles for unknown observer = %v", h)
	}
}

func TestClockStampsObservations(t *testing.T) {
	now := 5 * time.Second
	l := NewRetaining(NewClassifier(), func() time.Duration { return now })
	l.SawData("A", "x")
	now = 7 * time.Second
	l.SawData("A", "y")
	obs := l.Observations()
	if obs[0].Time != 5*time.Second || obs[1].Time != 7*time.Second {
		t.Errorf("times = %v, %v", obs[0].Time, obs[1].Time)
	}
}

func TestConcurrentSaw(t *testing.T) {
	l := newTestLedger()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.SawData("W", fmt.Sprintf("v-%d-%d", i, j))
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 1600 {
		t.Errorf("Len = %d, want 1600", l.Len())
	}
}

func TestHashStability(t *testing.T) {
	a := Hash([]byte("payload"))
	b := Hash([]byte("payload"))
	c := Hash([]byte("payload!"))
	if a != b {
		t.Error("Hash not deterministic")
	}
	if a == c {
		t.Error("distinct inputs collided")
	}
	if len(a) != 24 {
		t.Errorf("handle length = %d", len(a))
	}
}

func TestConnHandleOrderMatters(t *testing.T) {
	if ConnHandle("a", "b") == ConnHandle("b", "a") {
		t.Error("ConnHandle should be order-sensitive (directional legs differ)")
	}
	if ConnHandle("a", "b") != ConnHandle("a", "b") {
		t.Error("ConnHandle not deterministic")
	}
	// The separator must prevent concatenation ambiguity.
	if ConnHandle("ab", "c") == ConnHandle("a", "bc") {
		t.Error("ConnHandle ambiguous under concatenation")
	}
}

func TestNewNilClassifier(t *testing.T) {
	l := NewRetaining(nil, nil)
	l.SawData("A", "anything")
	if l.Observations()[0].Level != core.NonSensitive {
		t.Error("default classification should be non-sensitive")
	}
}
