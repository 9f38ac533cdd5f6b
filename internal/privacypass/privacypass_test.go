package privacypass

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"decoupling/internal/adversary"
	"decoupling/internal/core"
	"decoupling/internal/dcrypto/token"
	"decoupling/internal/ledger"
)

const testKeyBits = 1024

func setup(t testing.TB, lg *ledger.Ledger) (*Issuer, *Origin, *Client) {
	t.Helper()
	is, err := NewIssuer("issuer.example", testKeyBits, lg)
	if err != nil {
		t.Fatal(err)
	}
	is.Enroll("client-1")
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)
	return is, origin, NewClient("client-1", is.PublicKey())
}

func TestIssueAndRedeem(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, err := origin.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	tok, err := client.ObtainTokenDirect(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-7", tok, "/private/resource"); err != nil {
		t.Fatal(err)
	}
	if origin.Served() != 1 {
		t.Errorf("served = %d", origin.Served())
	}
}

func TestDoubleRedeemRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, _ := origin.Challenge()
	tok, err := client.ObtainTokenDirect(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-1", tok, "/a"); err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit-2", tok, "/b"); err != token.ErrSpent {
		t.Errorf("second redeem error = %v", err)
	}
}

func TestUnenrolledClientRejected(t *testing.T) {
	is, origin, _ := setup(t, nil)
	outsider := NewClient("stranger", is.PublicKey())
	ch, _ := origin.Challenge()
	if _, err := outsider.ObtainTokenDirect(ch, is); err != ErrNotAuthenticated {
		t.Errorf("unenrolled issuance error = %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	is, origin, client := setup(t, nil)
	is.PerClientLimit = 2
	for i := 0; i < 2; i++ {
		ch, _ := origin.Challenge()
		if _, err := client.ObtainTokenDirect(ch, is); err != nil {
			t.Fatal(err)
		}
	}
	ch, _ := origin.Challenge()
	if _, err := client.ObtainTokenDirect(ch, is); err != ErrRateLimited {
		t.Errorf("over-limit issuance error = %v", err)
	}
	if is.Issued("client-1") != 2 {
		t.Errorf("issued = %d", is.Issued("client-1"))
	}
}

func TestForeignChallengeRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	other := NewOrigin("other.example", "issuer.example", is.PublicKey(), nil)
	foreignCh, _ := other.Challenge()
	tok, err := client.ObtainTokenDirect(foreignCh, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("exit", tok, "/x"); err != ErrWrongChallenge {
		t.Errorf("foreign challenge error = %v", err)
	}
}

func TestTamperedTokenRejected(t *testing.T) {
	is, origin, client := setup(t, nil)
	ch, _ := origin.Challenge()
	tok, err := client.ObtainTokenDirect(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	tok.Signature[0] ^= 1
	if err := origin.Redeem("exit", tok, "/x"); err != ErrBadToken {
		t.Errorf("tampered token error = %v", err)
	}
}

// TestDecouplingTable reproduces the paper's §3.2.1 table from an
// instrumented run with multiple clients.
func TestDecouplingTable(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	is, err := NewIssuer("issuer.example", testKeyBits, lg)
	if err != nil {
		t.Fatal(err)
	}
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)

	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("client-%d", i)
		exit := fmt.Sprintf("exit-%d", i%2)
		resource := fmt.Sprintf("/private/page-%d", i)
		cls.RegisterIdentity(id, id, "", core.Sensitive)
		cls.RegisterIdentity(exit, "", "", core.NonSensitive)
		cls.RegisterData(resource, id, "", core.Sensitive)
		is.Enroll(id)
		client := NewClient(id, is.PublicKey())
		ch, _ := origin.Challenge()
		tok, err := client.ObtainTokenDirect(ch, is)
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Redeem(exit, tok, resource); err != nil {
			t.Fatal(err)
		}
	}

	expected := core.PrivacyPass()
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
	if !v.Decoupled || v.Degree != 0 {
		t.Errorf("measured verdict = %s, want decoupled with degree 0", v)
	}
}

// TestIssuerOriginCollusionCannotLink: the unlinkability claim under the
// strongest coalition.
func TestIssuerOriginCollusionCannotLink(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	is, err := NewIssuer("issuer.example", testKeyBits, lg)
	if err != nil {
		t.Fatal(err)
	}
	origin := NewOrigin("origin.example", "issuer.example", is.PublicKey(), lg)
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("client-%d", i)
		resource := fmt.Sprintf("/r/%d", i)
		cls.RegisterIdentity(id, id, "", core.Sensitive)
		cls.RegisterData(resource, id, "", core.Sensitive)
		is.Enroll(id)
		ch, _ := origin.Challenge()
		tok, err := NewClient(id, is.PublicKey()).ObtainTokenDirect(ch, is)
		if err != nil {
			t.Fatal(err)
		}
		if err := origin.Redeem("anon", tok, resource); err != nil {
			t.Fatal(err)
		}
	}
	res := adversary.LinkSubjects(lg.Observations(), []string{IssuerName, OriginName})
	if rate := adversary.LinkageRate(res); rate != 0 {
		t.Errorf("issuer+origin collusion linked %.0f%% of clients", rate*100)
	}
}

// TestHTTPFlow exercises the full challenge -> issue -> redeem loop over
// real loopback HTTP servers.
func TestHTTPFlow(t *testing.T) {
	is, origin, client := setup(t, nil)
	issuerSrv := httptest.NewServer(IssuerHandler(is))
	defer issuerSrv.Close()
	originSrv := httptest.NewServer(OriginHandler(origin))
	defer originSrv.Close()

	// 1. Unauthenticated request gets a challenge.
	resp, err := http.Get(originSrv.URL + "/private/doc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("status = %d, want 401", resp.StatusCode)
	}
	wwwAuth := resp.Header.Get("WWW-Authenticate")
	const prefix = "PrivateToken challenge="
	if !strings.HasPrefix(wwwAuth, prefix) {
		t.Fatalf("WWW-Authenticate = %q", wwwAuth)
	}
	chRaw, err := base64.StdEncoding.DecodeString(strings.TrimPrefix(wwwAuth, prefix))
	if err != nil {
		t.Fatal(err)
	}
	ch, err := token.UnmarshalChallenge(chRaw)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Obtain a token from the issuer over HTTP.
	tok, err := client.ObtainToken(ch, HTTPIssue(issuerSrv.Client(), issuerSrv.URL))
	if err != nil {
		t.Fatal(err)
	}

	// 3. Redeem it.
	req, _ := http.NewRequest(http.MethodGet, originSrv.URL+"/private/doc", nil)
	req.Header.Set("Authorization", base64.StdEncoding.EncodeToString(tok.Marshal()))
	resp2, err := originSrv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("redeem status = %d", resp2.StatusCode)
	}
}

func TestHTTPIssuerRejectsUnknownClient(t *testing.T) {
	is, origin, _ := setup(t, nil)
	issuerSrv := httptest.NewServer(IssuerHandler(is))
	defer issuerSrv.Close()
	ch, _ := origin.Challenge()
	outsider := NewClient("stranger", is.PublicKey())
	_, err := outsider.ObtainToken(ch, HTTPIssue(issuerSrv.Client(), issuerSrv.URL))
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("err = %v, want 401", err)
	}
}

func BenchmarkTokenRoundTrip(b *testing.B) {
	is, origin, client := setup(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch, err := origin.Challenge()
		if err != nil {
			b.Fatal(err)
		}
		tok, err := client.ObtainTokenDirect(ch, is)
		if err != nil {
			b.Fatal(err)
		}
		if err := origin.Redeem("exit", tok, "/r"); err != nil {
			b.Fatal(err)
		}
	}
}

func TestIssuerHandlerErrorPaths(t *testing.T) {
	is, _, _ := setup(t, nil)
	srv := httptest.NewServer(IssuerHandler(is))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/issue")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}

	// Bad base64 body from an enrolled client.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/issue", strings.NewReader("!!!not-base64!!!"))
	req.Header.Set("Authorization", "client-1")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad-encoding status = %d", resp.StatusCode)
	}

	// Rate limit surfaces as 429.
	is.PerClientLimit = 1
	c := NewClient("client-1", is.PublicKey())
	o := NewOrigin("o", "issuer.example", is.PublicKey(), nil)
	ch, _ := o.Challenge()
	if _, err := c.ObtainToken(ch, HTTPIssue(srv.Client(), srv.URL)); err != nil {
		t.Fatal(err)
	}
	ch2, _ := o.Challenge()
	_, err = c.ObtainToken(ch2, HTTPIssue(srv.Client(), srv.URL))
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("over-limit err = %v, want 429", err)
	}
}

func TestOriginHandlerErrorPaths(t *testing.T) {
	is, origin, client := setup(t, nil)
	srv := httptest.NewServer(OriginHandler(origin))
	defer srv.Close()

	// Garbage token encoding.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/r", nil)
	req.Header.Set("Authorization", "!!!")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad encoding status = %d", resp.StatusCode)
	}

	// Structurally invalid token bytes.
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/r", nil)
	req.Header.Set("Authorization", base64.StdEncoding.EncodeToString([]byte("short")))
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad token status = %d", resp.StatusCode)
	}

	// A spent token redeems 403.
	ch, _ := origin.Challenge()
	tok, err := client.ObtainTokenDirect(ch, is)
	if err != nil {
		t.Fatal(err)
	}
	if err := origin.Redeem("first", tok, "/r"); err != nil {
		t.Fatal(err)
	}
	req, _ = http.NewRequest(http.MethodGet, srv.URL+"/r", nil)
	req.Header.Set("Authorization", base64.StdEncoding.EncodeToString(tok.Marshal()))
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("double-spend status = %d", resp.StatusCode)
	}
}
