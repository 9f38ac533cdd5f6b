package provenance

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"decoupling/internal/core"
	"decoupling/internal/ledger"
)

const nClients = 6

// buildRun constructs an ODoH-shaped scenario — proxy sees who,
// target sees what, a shared target leg joins them — with THREE
// sources of run-to-run nondeterminism the audit must erase:
// admission order (perm), raw handle bytes, and ciphertext bytes (both
// vary with run).
func buildRun(run int, perm []int) (*ledger.Ledger, *core.System) {
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	target := fmt.Sprintf("tl-%d", run) // raw handles differ per run
	type op func()
	var ops []op
	for i := 0; i < nClients; i++ {
		i := i
		client := fmt.Sprintf("client-%d", i)
		query := fmt.Sprintf("query-%d", i)
		cls.RegisterIdentity(client, client, "", core.Sensitive)
		cls.RegisterData(query, client, "", core.Sensitive)
		leg := fmt.Sprintf("cl-%d-%d", i, run)
		ct := fmt.Sprintf("ct-%d-%d", i, run) // unrecognized → opaque
		ops = append(ops,
			func() { lg.SawIdentity("Proxy", client, leg) },
			func() { lg.SawData("Proxy", ct, leg, target) },
			func() { lg.SawData("Target", query, target) },
		)
	}
	for _, i := range perm {
		ops[i]()
	}
	sys := &core.System{
		Name: "odoh-shaped",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "Proxy", Knows: core.Tuple{core.SensID(), core.NonSensData()}},
			{Name: "Target", Knows: core.Tuple{core.NonSensID(), core.SensData()}},
		},
	}
	return lg, sys
}

func renderAll(t *testing.T, a *Audit) (report, jsonl, dot, graph string) {
	t.Helper()
	var r, j, d, g bytes.Buffer
	if err := WriteReport(&r, a); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if err := WriteJSONL(&j, a); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := WriteDOT(&d, a); err != nil {
		t.Fatalf("WriteDOT: %v", err)
	}
	if err := WriteGraphJSON(&g, a); err != nil {
		t.Fatalf("WriteGraphJSON: %v", err)
	}
	return r.String(), j.String(), d.String(), g.String()
}

// TestAuditByteDeterminism is the core determinism contract: audits of
// the same logical run must render byte-identically even when
// admission order, raw handle strings, and ciphertext bytes all differ
// — exactly what varies across -parallel settings and across process
// runs.
func TestAuditByteDeterminism(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	var baseR, baseJ, baseD, baseG string
	for run := 0; run < 6; run++ {
		perm := rng.Perm(3 * nClients)
		lg, sys := buildRun(run, perm)
		a, err := Derive(lg, sys)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		r, j, d, g := renderAll(t, a)
		if run == 0 {
			baseR, baseJ, baseD, baseG = r, j, d, g
			continue
		}
		for name, pair := range map[string][2]string{
			"report": {baseR, r}, "jsonl": {baseJ, j}, "dot": {baseD, d}, "graphjson": {baseG, g},
		} {
			if pair[0] != pair[1] {
				t.Errorf("run %d: %s output differs from run 0:\n--- run 0 ---\n%s\n--- run %d ---\n%s",
					run, name, firstDiff(pair[0], pair[1]), run, "")
			}
		}
	}
}

func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("length differs: %d vs %d lines", len(al), len(bl))
}

// TestAuditContent pins the semantic content of the audit on the
// ODoH-shaped run: verdict, evidence coverage, chains, redaction,
// aliasing, and partition structure.
func TestAuditContent(t *testing.T) {
	t.Parallel()
	lg, sys := buildRun(0, seqPerm(3*nClients))
	a, err := Derive(lg, sys)
	if err != nil {
		t.Fatal(err)
	}

	if !a.Verdict.Decoupled || a.Verdict.Degree != 2 {
		t.Errorf("verdict: %+v, want decoupled at degree 2", a.Verdict)
	}
	if a.TotalObs != 3*nClients {
		t.Errorf("TotalObs = %d", a.TotalObs)
	}
	// Handles: one client leg per client plus one shared target leg.
	if a.HandleCount != nClients+1 {
		t.Errorf("HandleCount = %d, want %d", a.HandleCount, nClients+1)
	}

	// Every non-user component at a level above non-sensitive must cite
	// at least one supporting observation (the ISSUE acceptance bar).
	for _, e := range a.Entities {
		if e.User {
			if len(e.Components) != 0 {
				t.Errorf("user entity carries measured components")
			}
			continue
		}
		for _, c := range e.Components {
			if c.Level != core.NonSensitive.String() && len(c.Evidence) == 0 {
				t.Errorf("entity %s component %s: level %s with no evidence", e.Name, c.Symbol, c.Level)
			}
			for _, id := range c.Evidence {
				if id < 1 || id > a.TotalObs {
					t.Errorf("entity %s: evidence id %d out of range", e.Name, id)
				}
				o := a.Evidence[id-1]
				if o.Observer != e.Name || o.Kind != c.Kind || o.Label != c.Label || o.Level != c.Level {
					t.Errorf("entity %s component %s: cited obs %+v does not match", e.Name, c.Symbol, o)
				}
			}
		}
	}

	// All clients linked, each through a 3-hop chain whose middle hop is
	// the opaque proxy record.
	if len(a.Subjects) != nClients {
		t.Fatalf("%d subject links, want %d", len(a.Subjects), nClients)
	}
	for _, s := range a.Subjects {
		if !s.Linked || len(s.Chain) != 3 {
			t.Errorf("subject %s: linked=%v chain=%v, want 3-hop link", s.Subject, s.Linked, s.Chain)
			continue
		}
		mid := a.Evidence[s.Chain[1].Obs-1]
		if !mid.Opaque || mid.Value != OpaqueValue {
			t.Errorf("subject %s: middle hop %+v should be the opaque proxy record", s.Subject, mid)
		}
	}

	// The shared target leg connects everything: one coupled partition.
	if len(a.Partitions) != 1 || !a.Partitions[0].Coupled {
		t.Fatalf("partitions: %+v, want a single coupled partition", a.Partitions)
	}
	if got := a.Partitions[0].Entities; len(got) != 2 {
		t.Errorf("partition entities: %v", got)
	}

	// No raw handle or ciphertext bytes may leak into any output.
	_, jsonl, dot, graph := renderAll(t, a)
	for _, leak := range []string{"tl-0", "cl-0-0", "ct-0-0"} {
		for name, out := range map[string]string{"jsonl": jsonl, "dot": dot, "graphjson": graph} {
			if strings.Contains(out, leak) {
				t.Errorf("%s output leaks raw string %q", name, leak)
			}
		}
	}
	if !strings.Contains(jsonl, OpaqueValue) {
		t.Errorf("jsonl output lost the opaque marker")
	}
}

func seqPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestPartitionsSplit checks that handle-disjoint sessions form
// separate partitions with independent coupling verdicts.
func TestPartitionsSplit(t *testing.T) {
	t.Parallel()
	cls := ledger.NewClassifier()
	cls.RegisterIdentity("alice-addr", "alice", "", core.Sensitive)
	cls.RegisterData("alice-secret", "alice", "", core.Sensitive)
	cls.RegisterIdentity("bob-addr", "bob", "", core.Sensitive)
	lg := ledger.NewRetaining(cls, nil)
	// Session 1: identity and data share a handle — coupled.
	lg.SawIdentity("VPN", "alice-addr", "s1")
	lg.SawData("VPN", "alice-secret", "s1")
	// Session 2: only an identity — cannot couple.
	lg.SawIdentity("VPN", "bob-addr", "s2")

	sys := &core.System{
		Name: "vpn-toy",
		Entities: []core.Entity{
			{Name: "User", User: true, Knows: core.Tuple{core.SensID(), core.SensData()}},
			{Name: "VPN", Knows: core.Tuple{core.SensID(), core.NonSensData()}},
		},
	}
	a, err := Derive(lg, sys)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Partitions) != 2 {
		t.Fatalf("partitions: %+v, want 2", a.Partitions)
	}
	coupled := 0
	for _, p := range a.Partitions {
		if p.Coupled {
			coupled++
		}
	}
	if coupled != 1 {
		t.Errorf("coupled partitions = %d, want exactly 1", coupled)
	}
	if a.Verdict.Decoupled {
		t.Errorf("VPN holding both sides must not be decoupled")
	}

	var report bytes.Buffer
	if err := WriteReport(&report, a); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alice: LINKED", "bob: not linkable", "COUPLED"} {
		if !strings.Contains(report.String(), want) {
			t.Errorf("report missing %q:\n%s", want, report.String())
		}
	}
}

// TestDeriveFoldOnlyLedgerErrors: a fold-only ledger keeps no
// observations, so Derive must refuse it rather than render an audit
// with no evidence.
func TestDeriveFoldOnlyLedgerErrors(t *testing.T) {
	lg := ledger.New(ledger.NewClassifier(), nil)
	lg.SawIdentity("VPN", "alice-addr", "s1")
	a, err := Derive(lg, core.VPN())
	if err == nil || !strings.Contains(err.Error(), "NewRetaining") {
		t.Fatalf("Derive on a fold-only ledger = %v, %v; want an error naming NewRetaining", a, err)
	}
}
