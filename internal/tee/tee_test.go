package tee

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

func testVendor(t testing.TB) *Vendor {
	t.Helper()
	v, err := NewVendor("AcmeSilicon")
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInvokeEvolvesSealedState(t *testing.T) {
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	before := e.StateDigest()
	out, err := e.Invoke(append(make([]byte, 7), 10)) // threshold 10
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Errorf("first invoke under threshold returned %v", out)
	}
	if e.StateDigest() == before {
		t.Error("state digest unchanged after invoke")
	}
	if e.Invokes() != 1 {
		t.Errorf("invokes = %d", e.Invokes())
	}
}

func TestAttestationVerifies(t *testing.T) {
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	nonce := []byte("fresh challenge")
	att, err := e.AttestedInvoke(nonce, append(make([]byte, 7), 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(v.PublicKey(), att, CACTIProgram(), nonce); err != nil {
		t.Errorf("valid attestation rejected: %v", err)
	}
}

func TestAttestationRejections(t *testing.T) {
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	nonce := []byte("n1")
	att, err := e.AttestedInvoke(nonce, append(make([]byte, 7), 5))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong program expectation.
	if err := Verify(v.PublicKey(), att, PhoenixProgram(), nonce); err != ErrWrongMeasurement {
		t.Errorf("wrong-measurement err = %v", err)
	}
	// Replay under a different nonce.
	if err := Verify(v.PublicKey(), att, CACTIProgram(), []byte("n2")); err != ErrWrongNonce {
		t.Errorf("wrong-nonce err = %v", err)
	}
	// Tampered report data.
	bad := *att
	bad.ReportData = []byte{0}
	if err := Verify(v.PublicKey(), &bad, CACTIProgram(), nonce); err != ErrBadAttestation {
		t.Errorf("tampered err = %v", err)
	}
	// Wrong vendor.
	v2 := testVendor(t)
	if err := Verify(v2.PublicKey(), att, CACTIProgram(), nonce); err != ErrBadAttestation {
		t.Errorf("foreign-vendor err = %v", err)
	}
}

func TestEnclaveFaultSurfaces(t *testing.T) {
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	if _, err := e.Invoke([]byte("short")); !errors.Is(err, ErrEnclaveFault) {
		t.Errorf("err = %v", err)
	}
}

// TestCACTIRateLimit: the enclave's private counter enforces the
// threshold across origins without the origin learning the count.
func TestCACTIRateLimit(t *testing.T) {
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	origin := NewCACTIOrigin("site.example", v.PublicKey(), 3, nil)
	for i := 0; i < 3; i++ {
		if err := origin.Admit("anon-conn", e, "/page"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if err := origin.Admit("anon-conn", e, "/page"); err == nil {
		t.Error("fourth request admitted past threshold 3")
	}
	if origin.Served() != 3 {
		t.Errorf("served = %d", origin.Served())
	}
}

// TestCACTIDecoupling: the origin's observations contain the rate proof
// and the resource, never a counter value or cross-site history — the
// CAPTCHA-replacement privacy claim.
func TestCACTIDecoupling(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	v := testVendor(t)
	e := v.Manufacture(CACTIProgram())
	origin := NewCACTIOrigin("site.example", v.PublicKey(), 10, lg)
	cls.RegisterIdentity("anon-conn", "", "", core.NonSensitive)
	for i := 0; i < 4; i++ {
		if err := origin.Admit("anon-conn", e, fmt.Sprintf("/r/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range lg.ByObserver("site.example") {
		if strings.Contains(o.Value, "count") || strings.Contains(o.Value, "history") {
			t.Errorf("origin observed enclave internals: %q", o.Value)
		}
	}
	tuple := lg.DeriveTuple("site.example", core.Tuple{core.NonSensID(), core.NonSensData()})
	if tuple.Coupled() {
		t.Errorf("CACTI origin coupled: %s", tuple.Symbol())
	}
}

// TestPhoenixKeylessCDN: the origin provisions after attestation; the
// client fetches through the CDN; the CDN operator sees ciphertext
// only.
func TestPhoenixKeylessCDN(t *testing.T) {
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("client-addr", "alice", "", core.Sensitive)
	cls.RegisterData("/members/secret-page", "alice", "", core.Sensitive)
	lg := ledger.NewRetaining(cls, nil)

	v := testVendor(t)
	enclave := v.Manufacture(PhoenixProgram())
	origin, err := NewPhoenixOrigin("publisher.example")
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Provision(v.PublicKey(), enclave, []byte("the protected article")); err != nil {
		t.Fatal(err)
	}
	cdn := NewPhoenixCDN("CDN Operator", enclave, lg)

	resp, err := PhoenixRequest(origin.PublicKey(), cdn, "client-addr", "/members/secret-page")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(resp, []byte("the protected article")) {
		t.Errorf("response = %q", resp)
	}

	// The operator never observed the path or the content.
	for _, o := range lg.ByObserver("CDN Operator") {
		if o.Kind == core.Data && o.Level > core.NonSensitive {
			t.Errorf("CDN operator observed sensitive data: %+v", o)
		}
		if strings.Contains(o.Value, "secret-page") || strings.Contains(o.Value, "article") {
			t.Errorf("CDN operator saw plaintext: %q", o.Value)
		}
	}
	tuple := lg.DeriveTuple("CDN Operator", core.Tuple{core.NonSensID(), core.NonSensData()})
	want := core.Tuple{core.SensID(), core.NonSensData()}
	if !tuple.Equal(want) {
		t.Errorf("CDN operator tuple = %s, want %s", tuple.Symbol(), want.Symbol())
	}
}

func TestPhoenixServeBeforeProvisionFails(t *testing.T) {
	v := testVendor(t)
	enclave := v.Manufacture(PhoenixProgram())
	cdn := NewPhoenixCDN("cdn", enclave, nil)
	origin, err := NewPhoenixOrigin("pub")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PhoenixRequest(origin.PublicKey(), cdn, "c", "/x"); err == nil {
		t.Error("unprovisioned enclave served content")
	}
}

func TestPhoenixWrongKeyRequestFails(t *testing.T) {
	v := testVendor(t)
	enclave := v.Manufacture(PhoenixProgram())
	origin, _ := NewPhoenixOrigin("pub")
	if err := origin.Provision(v.PublicKey(), enclave, []byte("content")); err != nil {
		t.Fatal(err)
	}
	cdn := NewPhoenixCDN("cdn", enclave, nil)
	other, _ := NewPhoenixOrigin("other")
	if _, err := PhoenixRequest(other.PublicKey(), cdn, "c", "/x"); err == nil {
		t.Error("request sealed to wrong origin key succeeded")
	}
}

// TestPhoenixDecouplingComparison: with the enclave the CDN operator is
// (▲, ⊙); the traditional CDN (operator terminates TLS itself) is
// (▲, ●) — the §4.3 decoupling gain, analyzed.
func TestPhoenixDecouplingComparison(t *testing.T) {
	withEnclave := &core.System{
		Name: "Keyless CDN (Phoenix)",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "CDN Operator", Knows: core.Tuple{core.SensID(), core.NonSensData()}, Links: []string{"edge"}},
			{Name: "Origin", Knows: core.Tuple{core.NonSensID(), core.SensData()}, Links: []string{"provision"}},
		},
	}
	traditional := &core.System{
		Name: "Traditional CDN",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "CDN Operator", Knows: core.Tuple{core.SensID(), core.SensData()}, Links: []string{"edge"}},
			{Name: "Origin", Knows: core.Tuple{core.NonSensID(), core.SensData()}, Links: []string{"pull"}},
		},
	}
	v1, err := core.Analyze(withEnclave)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := core.Analyze(traditional)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Decoupled {
		t.Errorf("Phoenix model not decoupled: %s", v1)
	}
	if v2.Decoupled {
		t.Errorf("traditional CDN model decoupled: %s", v2)
	}
}

func BenchmarkAttestedInvoke(b *testing.B) {
	v, err := NewVendor("bench")
	if err != nil {
		b.Fatal(err)
	}
	e := v.Manufacture(CACTIProgram())
	input := append(make([]byte, 7), 255)
	nonce := []byte("bench nonce")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.AttestedInvoke(nonce, input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPhoenixRequest(b *testing.B) {
	v, _ := NewVendor("bench")
	enclave := v.Manufacture(PhoenixProgram())
	origin, err := NewPhoenixOrigin("pub")
	if err != nil {
		b.Fatal(err)
	}
	if err := origin.Provision(v.PublicKey(), enclave, make([]byte, 1024)); err != nil {
		b.Fatal(err)
	}
	cdn := NewPhoenixCDN("cdn", enclave, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PhoenixRequest(origin.PublicKey(), cdn, "c", "/bench"); err != nil {
			b.Fatal(err)
		}
	}
}
