package ohttp

import (
	"fmt"
	"testing"
	"testing/quick"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

func echoGateway(t testing.TB, lg *ledger.Ledger) (*Relay, *Gateway) {
	t.Helper()
	g, err := NewGateway(GatewayName, func(req *Request) *Response {
		return &Response{Status: 200, Body: append([]byte("echo:"), req.Body...)}
	}, lg)
	if err != nil {
		t.Fatal(err)
	}
	return NewRelay(RelayName, g, lg), g
}

func TestRoundTrip(t *testing.T) {
	relay, g := echoGateway(t, nil)
	keyID, pub := g.KeyConfig()
	c := NewClient("client-1", keyID, pub)
	resp, err := c.Do(&Request{Method: "POST", Path: "/collect", Body: []byte("payload")}, relay.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "echo:payload" {
		t.Errorf("resp = %+v", resp)
	}
	if relay.Forwarded() != 1 || g.Handled() != 1 {
		t.Errorf("forwarded=%d handled=%d", relay.Forwarded(), g.Handled())
	}
}

func TestWrongKeyIDRejected(t *testing.T) {
	relay, g := echoGateway(t, nil)
	_, pub := g.KeyConfig()
	c := NewClient("client-1", []byte("12345678"), pub)
	if _, err := c.Do(&Request{Method: "GET", Path: "/"}, relay.Forward); err == nil {
		t.Error("wrong key id accepted")
	}
}

func TestGarbageRejected(t *testing.T) {
	_, g := echoGateway(t, nil)
	if _, err := g.HandleEncapsulated("relay", []byte("short")); err != ErrMalformed {
		t.Errorf("err = %v", err)
	}
	keyID, _ := g.KeyConfig()
	junk := append(append([]byte(nil), keyID...), make([]byte, 64)...)
	if _, err := g.HandleEncapsulated("relay", junk); err == nil {
		t.Error("undecryptable body accepted")
	}
}

func TestRequestResponseEncodingRoundTrip(t *testing.T) {
	f := func(method, path string, body []byte) bool {
		if len(method) > 255 || len(path) > 65535 {
			return true
		}
		req := &Request{Method: method, Path: path, Body: body}
		got, err := UnmarshalRequest(req.Marshal())
		if err != nil {
			return false
		}
		if got.Method != method || got.Path != path || string(got.Body) != string(body) {
			return false
		}
		resp := &Response{Status: 207, Body: body}
		gotR, err := UnmarshalResponse(resp.Marshal())
		return err == nil && gotR.Status == 207 && string(gotR.Body) == string(body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalFuzzSafety(t *testing.T) {
	f := func(data []byte) bool {
		_, _ = UnmarshalRequest(data)
		_, _ = UnmarshalResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestKnowledgeSplit: the relay is (▲, ⊙), the gateway (△, ●) — the
// paper's "decoupling the client's network identity from its individual
// contribution" (§3.2.5).
func TestKnowledgeSplit(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	relay, g := echoGateway(t, lg)
	keyID, pub := g.KeyConfig()

	for i := 0; i < 4; i++ {
		who := fmt.Sprintf("client-%d", i)
		report := fmt.Sprintf("sensitive report %d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(report, who, "", core.Sensitive)
		c := NewClient(who, keyID, pub)
		if _, err := c.Do(&Request{Method: "POST", Path: "/collect", Body: []byte(report)}, relay.Forward); err != nil {
			t.Fatal(err)
		}
	}

	relayTuple := lg.DeriveTuple(RelayName, core.Tuple{core.NonSensID(), core.NonSensData()})
	if !relayTuple.Equal(core.Tuple{core.SensID(), core.NonSensData()}) {
		t.Errorf("relay tuple = %s, want (▲, ⊙)", relayTuple.Symbol())
	}
	gwTuple := lg.DeriveTuple(GatewayName, core.Tuple{core.NonSensID(), core.NonSensData()})
	if !gwTuple.Equal(core.Tuple{core.NonSensID(), core.SensData()}) {
		t.Errorf("gateway tuple = %s, want (△, ●)", gwTuple.Symbol())
	}

	// Relay alone cannot link; relay+gateway collusion can.
	if rate := adversary.LinkageRate(adversary.LinkSubjects(lg.Observations(), []string{RelayName})); rate != 0 {
		t.Errorf("relay alone linked %.0f%%", rate*100)
	}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(lg.Observations(), []string{RelayName, GatewayName})); rate == 0 {
		t.Error("relay+gateway collusion failed to link")
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	relay, g := echoGateway(b, nil)
	keyID, pub := g.KeyConfig()
	c := NewClient("bench", keyID, pub)
	req := &Request{Method: "POST", Path: "/collect", Body: make([]byte, 256)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(req, relay.Forward); err != nil {
			b.Fatal(err)
		}
	}
}
