package ech

import (
	"fmt"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

func TestRoutingWithAndWithoutECH(t *testing.T) {
	srv, err := NewServer(nil)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(nil)
	for _, useECH := range []bool{false, true} {
		routed, err := Connect(net, srv, "10.0.0.7", "private.example", "GET /page", useECH)
		if err != nil {
			t.Fatal(err)
		}
		if routed != "private.example" {
			t.Errorf("useECH=%v: routed to %q", useECH, routed)
		}
	}
	if srv.Handled() != 2 {
		t.Errorf("handled = %d", srv.Handled())
	}
}

func TestHelloShapes(t *testing.T) {
	srv, _ := NewServer(nil)
	plain, err := BuildHello(srv.ECHConfig(), "private.example", false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.OuterSNI != "private.example" || plain.EncryptedInner != nil {
		t.Errorf("plain hello = %+v", plain)
	}
	ech, err := BuildHello(srv.ECHConfig(), "private.example", true)
	if err != nil {
		t.Fatal(err)
	}
	if ech.OuterSNI != PublicName || len(ech.EncryptedInner) == 0 {
		t.Errorf("ech hello outer = %q", ech.OuterSNI)
	}
}

func TestCorruptedInnerRejected(t *testing.T) {
	srv, _ := NewServer(nil)
	net := NewNetwork(nil)
	hello, err := BuildHello(srv.ECHConfig(), "x.example", true)
	if err != nil {
		t.Fatal(err)
	}
	hello.EncryptedInner[40] ^= 1
	if _, err := srv.Terminate(net, "c", hello, "r"); err != ErrDecrypt {
		t.Errorf("tampered inner hello error = %v, want ErrDecrypt", err)
	}
	// Sealed to a different server's key: also undecryptable.
	other, _ := NewServer(nil)
	foreign, err := BuildHello(other.ECHConfig(), "x.example", true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Terminate(net, "c", foreign, "r"); err != ErrDecrypt {
		t.Errorf("foreign-key inner hello error = %v, want ErrDecrypt", err)
	}
}

// TestNetworkViewChanges: ECH hides the inner SNI from the network —
// the improvement — while TestServerStaysCoupled shows the limit.
func TestNetworkViewChanges(t *testing.T) {
	run := func(useECH bool) []ledger.Observation {
		cls := ledger.NewClassifier()
		cls.RegisterIdentity("10.0.0.7", "alice", "", core.Sensitive)
		cls.RegisterData("sni:private.example", "alice", "", core.Sensitive)
		cls.RegisterData("GET /medical-records", "alice", "", core.Sensitive)
		lg := ledger.NewRetaining(cls, nil)
		srv, err := NewServer(lg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Connect(NewNetwork(lg), srv, "10.0.0.7", "private.example", "GET /medical-records", useECH); err != nil {
			t.Fatal(err)
		}
		return lg.Observations()
	}

	// Without ECH the network sees the sensitive SNI.
	var sawSensitive bool
	for _, o := range run(false) {
		if o.Observer == NetworkName && o.Kind == core.Data && o.Level == core.Sensitive {
			sawSensitive = true
		}
	}
	if !sawSensitive {
		t.Error("without ECH the network should see the sensitive SNI")
	}
	// With ECH it does not.
	for _, o := range run(true) {
		if o.Observer == NetworkName && o.Kind == core.Data && o.Level > core.NonSensitive {
			t.Errorf("with ECH the network observed sensitive data: %+v", o)
		}
	}
}

// TestDecouplingTable: the §3.3 point — even with ECH the system is NOT
// decoupled, because the TLS server remains (▲, ●).
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	srv, err := NewServer(lg)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork(lg)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client-%d", i)
		addr := fmt.Sprintf("10.0.0.%d", i)
		cls.RegisterIdentity(addr, who, "", core.Sensitive)
		cls.RegisterData("sni:private.example", who, "", core.Sensitive)
		cls.RegisterData(fmt.Sprintf("GET /records/%d", i), who, "", core.Sensitive)
		if _, err := Connect(net, srv, addr, "private.example", fmt.Sprintf("GET /records/%d", i), true); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.ECH()
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("measured table diverges from paper:\n%s", core.RenderComparison(expected, measured))
		for _, d := range diffs {
			t.Log(d)
		}
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatal(err)
	}
	if v.Decoupled {
		t.Error("ECH measured as decoupled; the paper's point is that it is not")
	}
}

func BenchmarkConnectECH(b *testing.B) {
	srv, err := NewServer(nil)
	if err != nil {
		b.Fatal(err)
	}
	net := NewNetwork(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Connect(net, srv, "c", "private.example", "GET /", true); err != nil {
			b.Fatal(err)
		}
	}
}
