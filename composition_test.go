package decoupling_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dns"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
	"decoupling/internal/mpr"
	"decoupling/internal/odoh"
)

// TestODoHThroughMPR composes two of the paper's systems over real
// sockets: the client reaches the ODoH proxy through the two-hop
// Multi-Party Relay, so even the ODoH proxy — the party that normally
// learns the client's network identity — sees only the relay exit.
// This is §5.1's "dynamically stitch services across multiple
// providers" made concrete: each layer removes one more piece of
// knowledge, and the measured observations confirm nobody holds both
// who and what.
func TestODoHThroughMPR(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)

	// ODoH deployment (proxy as a plain-HTTP origin behind the relays).
	zone := dns.NewZone("example.com")
	if err := zone.Add(dnswire.A("secret.example.com", 300, [4]byte{203, 0, 113, 9})); err != nil {
		t.Fatal(err)
	}
	auth := &dns.AuthServer{Name: "Auth", Zones: []*dns.Zone{zone}, Ledger: lg}
	target, err := odoh.NewTarget(odoh.TargetName, auth, lg)
	if err != nil {
		t.Fatal(err)
	}
	proxy := odoh.NewProxy(odoh.ProxyName, target, lg)
	proxySrv := httptest.NewServer(odoh.ProxyHandler(proxy, nil, ""))
	defer proxySrv.Close()
	proxyAddr := strings.TrimPrefix(proxySrv.URL, "http://")

	// MPR stack in front of it.
	stack, err := mpr.NewStack(lg, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stack.Close()

	// The client registers its identity and the sensitive query.
	cls.RegisterData("secret.example.com.", "alice", "", core.Sensitive)

	keyID, pub := target.KeyConfig()
	client := odoh.NewClient("alice", keyID, pub)

	// Forward function: POST the oblivious query over a fresh MPR
	// tunnel whose final hop is the ODoH proxy (plain HTTP, since the
	// oblivious message is already encrypted end to end).
	forward := func(clientAddr string, raw []byte) ([]byte, error) {
		cfg := stack.ClientConfig("", func(localAddr string) {
			cls.RegisterIdentity(localAddr, "alice", "", core.Sensitive)
		})
		cfg.OriginTLS = nil // the proxy is plain HTTP; payload is HPKE-sealed
		conn, err := mpr.Dial(stack.Relay1Addr, stack.Relay2Addr, proxyAddr, cfg)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		req, err := http.NewRequest(http.MethodPost, "http://"+proxyAddr+"/proxy", bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/oblivious-dns-message")
		if err := req.Write(conn); err != nil {
			return nil, err
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("proxy returned %s: %s", resp.Status, body)
		}
		return body, nil
	}

	answer, err := client.Query("secret.example.com", dnswire.TypeA, forward)
	if err != nil {
		t.Fatal(err)
	}
	if answer.RCode != dnswire.RCodeNoError || len(answer.Answers) != 1 {
		t.Fatalf("answer = %+v", answer)
	}
	if answer.Answers[0].Data[3] != 9 {
		t.Errorf("A rdata = %v", answer.Answers[0].Data)
	}

	// The layered knowledge structure, measured:
	//  - Relay 1 saw alice's address, nothing else.
	//  - Relay 2 and the ODoH proxy saw neither her address nor the query.
	//  - The target saw the query but only the proxy as peer.
	for _, o := range lg.ByObserver(mpr.Relay1Name) {
		if o.Kind == core.Data && o.Level > core.NonSensitive {
			t.Errorf("relay 1 observed sensitive data: %+v", o)
		}
	}
	for _, name := range []string{mpr.Relay2Name, odoh.ProxyName} {
		for _, o := range lg.ByObserver(name) {
			if o.Level > core.NonSensitive && o.Kind == core.Identity {
				t.Errorf("%s observed a sensitive identity: %+v", name, o)
			}
			if strings.Contains(o.Value, "secret.example.com") {
				t.Errorf("%s saw the query name: %q", name, o.Value)
			}
		}
	}
	targetTuple := lg.DeriveTuple(odoh.TargetName, core.Tuple{core.NonSensID(), core.NonSensData()})
	if !targetTuple.Equal(core.Tuple{core.NonSensID(), core.SensData()}) {
		t.Errorf("target tuple = %s, want (△, ●)", targetTuple.Symbol())
	}

	// Even the proxy+target coalition — which breaks plain ODoH — now
	// fails, because the proxy never saw alice's identity: the MPR layer
	// pushed the identity boundary one organization further out.
	obs := lg.Observations()
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, []string{odoh.ProxyName, odoh.TargetName})); rate != 0 {
		t.Errorf("proxy+target linked %.0f%% despite the MPR layer", rate*100)
	}
	// The full four-party coalition (both relays + both resolvers) can
	// still chain everything — the §5.2 limit: decoupling forces
	// violations to require system-wide collusion.
	full := []string{mpr.Relay1Name, mpr.Relay2Name, odoh.ProxyName, odoh.TargetName}
	if rate := adversary.LinkageRate(adversary.LinkSubjects(obs, full)); rate != 1 {
		t.Errorf("full coalition linked %.0f%%, want 100%%", rate*100)
	}
}
