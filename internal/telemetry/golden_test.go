package telemetry_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/odoh"
	"decoupling/internal/telemetry/wiretrace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// odohWire runs the canonical 2-hop ODoH exchange (client → proxy →
// target, two clients) under a rotate wire plane seeded 1. Issued ids
// depend only on the seed and the call order, which the sequential
// exchange fixes; no clock is bound, so every timestamp is zero.
func odohWire(t *testing.T) *wiretrace.Plane {
	t.Helper()
	plane := wiretrace.New(wiretrace.ModeRotate, 1)
	odohExchange(t, plane)
	return plane
}

// odohExchange resolves two names through one proxy and target, each
// from its own client, with every party attached to wire.
func odohExchange(t *testing.T, wire *wiretrace.Plane) {
	t.Helper()
	zone := dns.NewZone("example.com")
	if err := zone.Add(dnswire.A("www.example.com", 300, [4]byte{192, 0, 2, 1})); err != nil {
		t.Fatal(err)
	}
	if err := zone.Add(dnswire.A("mail.example.com", 300, [4]byte{192, 0, 2, 2})); err != nil {
		t.Fatal(err)
	}
	origin := &dns.AuthServer{Name: "Origin", Zones: []*dns.Zone{zone}}

	lg := ledger.New(ledger.NewClassifier(), nil)
	target, err := odoh.NewTarget(odoh.TargetName, origin, lg)
	if err != nil {
		t.Fatal(err)
	}
	target.InstrumentWire(wire)
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxy.InstrumentWire(wire)
	keyID, pub := target.KeyConfig()

	for i, q := range []struct{ who, name string }{
		{"client-0", "www.example.com"},
		{"client-1", "mail.example.com"},
	} {
		c := odoh.NewClient(q.who, keyID, pub)
		c.InstrumentWire(wire)
		resp, err := c.Query(q.name, dnswire.TypeA, proxy.Forward)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(resp.Answers) != 1 {
			t.Fatalf("query %d: %d answers, want 1", i, len(resp.Answers))
		}
	}
}

// wireGolden renders the plane's spans as the deterministic projection
// of WriteJSONL that the wire golden pins: everything but timestamps
// and observed values, whose ciphertext digests change with the fresh
// HPKE keys of every run. Value kinds stay.
func wireGolden(t *testing.T, plane *wiretrace.Plane) []byte {
	t.Helper()
	var raw bytes.Buffer
	if err := wiretrace.WriteJSONL(&raw, plane); err != nil {
		t.Fatal(err)
	}
	recs, err := wiretrace.ParseJSONL(&raw)
	if err != nil {
		t.Fatalf("exported wire spans fail strict parse: %v", err)
	}
	if err := wiretrace.Check(recs); err != nil {
		t.Fatalf("exported wire spans fail Check: %v", err)
	}
	type line struct {
		Vantage   string   `json:"vantage"`
		Name      string   `json:"name"`
		Trace     string   `json:"trace"`
		Span      string   `json:"span"`
		Parent    string   `json:"parent,omitempty"`
		RotatedTo string   `json:"rotated_to,omitempty"`
		Src       string   `json:"src,omitempty"`
		Dst       string   `json:"dst,omitempty"`
		Kinds     []string `json:"kinds,omitempty"`
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	for _, r := range recs {
		l := line{r.Vantage, r.Name, r.Trace, r.Span, r.Parent, r.RotatedTo, r.Src, r.Dst, nil}
		for _, v := range r.Values {
			l.Kinds = append(l.Kinds, v.Kind)
		}
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/name, rewriting it first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/telemetry -run ODoH -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestODoHTraceGolden pins the wire-plane trace of the exchange: the
// exact span tree, ids and rotations a seeded rotate plane records. Run
// with -update after an intentional change.
func TestODoHTraceGolden(t *testing.T) {
	checkGolden(t, "odoh_wire.golden", wireGolden(t, odohWire(t)))
}

// TestODoHTraceShape validates the same trace structurally: each query
// is a 3-deep chain client.query → proxy.forward → target.handle whose
// root names the client, and the proxy and the target each rotate the
// trace id at their decoupling boundary.
func TestODoHTraceShape(t *testing.T) {
	spans := map[wiretrace.SpanID]*wiretrace.Span{}
	var roots []*wiretrace.Span
	for _, st := range odohWire(t).Stores() {
		for _, sp := range st.Spans() {
			spans[sp.ID] = sp
			if sp.Parent.IsZero() {
				roots = append(roots, sp)
			}
		}
	}
	if len(spans) != 6 || len(roots) != 2 {
		t.Fatalf("got %d spans and %d roots, want 6 and 2 (3 spans per query)", len(spans), len(roots))
	}
	for _, handle := range spans {
		if handle.Name != "odoh.target.handle" {
			continue
		}
		forward := spans[handle.Parent]
		if forward == nil || forward.Name != "odoh.proxy.forward" || forward.Vantage != odoh.ProxyName {
			t.Fatalf("target span not nested under the proxy: %+v", forward)
		}
		query := spans[forward.Parent]
		if query == nil || query.Name != "odoh.client.query" || !query.Parent.IsZero() {
			t.Fatalf("proxy span not nested under a client root: %+v", query)
		}
		if handle.Vantage != odoh.TargetName || handle.Src != odoh.ProxyName || forward.Src != query.Src {
			t.Errorf("chain endpoints wrong: query %+v, forward %+v, handle %+v", query, forward, handle)
		}
		if forward.Trace != query.Trace || handle.Trace != forward.RotatedTo || handle.RotatedTo.IsZero() {
			t.Errorf("chain of %s does not rotate at the proxy and the target", query.Src)
		}
	}
}
