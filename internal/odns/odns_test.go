package odns

import (
	"fmt"
	"strings"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
)

// ecosystem wires: client -> recursive resolver -> oblivious resolver
// (.odns authority) -> origin auth server (example.com).
func ecosystem(t testing.TB, lg *ledger.Ledger) (*dns.Resolver, *ObliviousResolver, *dns.AuthServer) {
	t.Helper()
	z := dns.NewZone("example.com")
	for i, host := range []string{"www", "mail", "secret"} {
		if err := z.Add(dnswire.A(host+".example.com", 300, [4]byte{198, 51, 100, byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{z}, Ledger: lg}
	oblivious, err := NewObliviousResolver(origin, lg)
	if err != nil {
		t.Fatal(err)
	}
	recursive := dns.NewResolver("Resolver", []dns.Authority{oblivious, origin}, lg, nil)
	return recursive, oblivious, origin
}

func TestObliviousQueryResolves(t *testing.T) {
	recursive, _, _ := ecosystem(t, nil)
	client := NewClient("client-1", mustKey(t, recursive), recursive)
	resp, err := client.Query("www.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].Data[3] != 0 {
		t.Errorf("A rdata = %v", resp.Answers[0].Data)
	}
}

// mustKey digs the oblivious resolver's key out of the resolver's
// authority list (test convenience).
func mustKey(t testing.TB, r *dns.Resolver) []byte {
	t.Helper()
	for _, a := range r.Auths {
		if o, ok := a.(*ObliviousResolver); ok {
			return o.PublicKey()
		}
	}
	t.Fatal("no oblivious resolver wired")
	return nil
}

func TestNXDomainPropagates(t *testing.T) {
	recursive, _, _ := ecosystem(t, nil)
	client := NewClient("client-1", mustKey(t, recursive), recursive)
	resp, err := client.Query("missing.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestUnservableInnerQueryServFail(t *testing.T) {
	recursive, _, _ := ecosystem(t, nil)
	client := NewClient("client-1", mustKey(t, recursive), recursive)
	resp, err := client.Query("outside.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeServFail {
		t.Errorf("rcode = %v", resp.RCode)
	}
}

func TestEncapsulateDecapsulateRoundTrip(t *testing.T) {
	raw := []byte("arbitrary binary \x00\xff payload for the qname")
	name, err := encapsulate(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(name, "."+TLD) {
		t.Errorf("name = %q", name)
	}
	for _, label := range strings.Split(strings.TrimSuffix(name, "."), ".") {
		if len(label) > 63 {
			t.Errorf("label %q exceeds 63 bytes", label)
		}
	}
	back, err := decapsulate(name)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(raw) {
		t.Error("round trip mismatch")
	}
}

func TestEncapsulateRejectsOversize(t *testing.T) {
	if _, err := encapsulate(make([]byte, 300)); err == nil {
		t.Error("oversized encapsulation accepted")
	}
}

func TestDecapsulateRejectsForeignName(t *testing.T) {
	if _, err := decapsulate("www.example.com"); err != ErrBadEncapsulation {
		t.Errorf("err = %v", err)
	}
	if _, err := decapsulate("not-base32-!!!.odns"); err == nil {
		t.Error("bad base32 accepted")
	}
}

func TestGarbageQueryHandled(t *testing.T) {
	_, oblivious, _ := ecosystem(t, nil)
	q := dnswire.NewQuery(1, "aaaaaaaa.odns", dnswire.TypeTXT)
	resp := oblivious.Handle("resolver", q)
	if resp.RCode == dnswire.RCodeNoError {
		t.Error("garbage query answered successfully")
	}
	if _, dropped := oblivious.Stats(); dropped != 1 {
		t.Errorf("dropped = %d", dropped)
	}
}

// TestDecouplingTable reproduces the paper's §3.2.2 table for ODNS.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	recursive, oblivious, _ := ecosystem(t, lg)

	names := []string{"www.example.com", "mail.example.com", "secret.example.com"}
	for i := 0; i < 6; i++ {
		who := fmt.Sprintf("client-%d", i)
		name := names[i%len(names)]
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(name), who, "", core.Sensitive)
		client := NewClient(who, oblivious.PublicKey(), recursive)
		if _, err := client.Query(name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.ObliviousDNS()
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
	if !v.Decoupled {
		t.Errorf("measured system not decoupled: %s", v)
	}
}

// TestResolverObliviousResolverCollusion: the §3.2.2 non-collusion
// caveat, measured — the recursive resolver plus the oblivious resolver
// CAN link clients to queries (they share the query leg), which is why
// they must be different organizations.
func TestResolverObliviousResolverCollusion(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	recursive, oblivious, _ := ecosystem(t, lg)
	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client-%d", i)
		name := "secret.example.com"
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName(name), who, "", core.Sensitive)
		client := NewClient(who, oblivious.PublicKey(), recursive)
		if _, err := client.Query(name, dnswire.TypeA); err != nil {
			t.Fatal(err)
		}
	}
	// Resolver alone: cannot link (sees only ciphertext names).
	res := adversary.LinkSubjects(lg.Observations(), []string{"Resolver"})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("resolver alone linked %.0f%%", rate*100)
	}
	// Resolver + Oblivious Resolver: coupled via the shared query leg.
	res = adversary.LinkSubjects(lg.Observations(), []string{"Resolver", ObliviousResolverName})
	if rate := adversary.LinkageRate(res); rate == 0 {
		t.Error("colluding resolver pair failed to link any client; the non-collusion caveat should be measurable")
	}
}

// TestResolverSeesOnlyCiphertext asserts the load-bearing negative: no
// observation by the recursive resolver contains a plaintext query name.
func TestResolverSeesOnlyCiphertext(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	recursive, oblivious, _ := ecosystem(t, lg)
	cls.RegisterData("secret.example.com.", "alice", "", core.Sensitive)
	client := NewClient("alice", oblivious.PublicKey(), recursive)
	if _, err := client.Query("secret.example.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	for _, o := range lg.ByObserver("Resolver") {
		if o.Kind == core.Data && o.Level > core.NonSensitive {
			t.Errorf("resolver observed sensitive data: %+v", o)
		}
		if strings.Contains(o.Value, "secret.example.com") && !strings.HasSuffix(o.Value, TLD) {
			t.Errorf("resolver saw plaintext query name: %q", o.Value)
		}
	}
}

func BenchmarkObliviousQuery(b *testing.B) {
	recursive, oblivious, _ := ecosystem(b, nil)
	client := NewClient("bench", oblivious.PublicKey(), recursive)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Query("www.example.com", dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}
