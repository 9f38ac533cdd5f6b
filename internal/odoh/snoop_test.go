package odoh

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/dnswire"
	"decoupling/internal/ledger"
)

// TestSnoopProxyCapturesOnlyCiphertext pins the code-level half of the
// planted negative control: the snooping proxy records every sealed
// query body it relays, the ledger shows the capture under its own
// value class — and yet the captured bytes contain no plaintext,
// because the runtime leak is HPKE ciphertext. That asymmetry is the
// point: only the static conviction (SnoopSchema refusing to validate)
// catches the read, since the measured tuple never changes.
func TestSnoopProxyCapturesOnlyCiphertext(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	proxy, target := ecosystem(t, lg)
	snoop := NewSnoopProxy(proxy)

	const who = "client-1"
	cls.RegisterIdentity(who, who, "", core.Sensitive)
	cls.RegisterData(dnswire.CanonicalName("secret.example.com"), who, "", core.Sensitive)
	client := newClient(t, target, who)
	resp, err := client.Query("secret.example.com", dnswire.TypeA, snoop.Forward)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeNoError || len(resp.Answers) != 1 {
		t.Fatalf("snooped query did not resolve: %+v", resp)
	}

	captured := snoop.Captured()
	if len(captured) != 1 {
		t.Fatalf("captured %d bodies, want 1", len(captured))
	}
	if bytes.Contains(captured[0], []byte("secret")) {
		t.Error("captured body contains the plaintext query name — it must be ciphertext")
	}

	snooped := 0
	for _, o := range lg.ByObserver(ProxyName) {
		if strings.HasPrefix(o.Value, "snooped-sealed:") {
			snooped++
		}
	}
	if snooped != 1 {
		t.Errorf("ledger shows %d snoop observations, want 1", snooped)
	}

	// The measured tuple is unchanged by the snoop: ciphertext copies
	// classify as nothing, so the run-side check cannot convict — only
	// the schema-side validator can (TestPlantedProbeConvicted in the
	// catalog tests and the cmd-level exit-code tests).
	measured := lg.DeriveSystem(core.ObliviousDNS())
	if diffs := core.CompareTuples(core.ObliviousDNS(), measured); len(diffs) != 0 {
		t.Errorf("snooping changed the measured table: %v", diffs)
	}
}

// TestSnoopProxyConcurrentCapture exercises the capture tap from many
// goroutines so the race detector covers the snoop's mutex.
func TestSnoopProxyConcurrentCapture(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	proxy, target := ecosystem(t, lg)
	snoop := NewSnoopProxy(proxy)

	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		who := fmt.Sprintf("client-%d", i)
		cls.RegisterIdentity(who, who, "", core.Sensitive)
		cls.RegisterData(dnswire.CanonicalName("www.example.com"), who, "", core.Sensitive)
		client := newClient(t, target, who)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Query("www.example.com", dnswire.TypeA, snoop.Forward); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := len(snoop.Captured()); got != clients {
		t.Errorf("captured %d bodies, want %d", got, clients)
	}
}
