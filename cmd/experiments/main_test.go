package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"decoupling/internal/explore"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

func TestRunSelectedExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "E8") || !strings.Contains(s, "[PASS]") {
		t.Errorf("output:\n%s", s)
	}
	if !strings.Contains(s, "all 1 experiments reproduce the paper") {
		t.Errorf("missing summary line:\n%s", s)
	}
}

func TestRunUnknownID(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E99"}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestParallelOutputByteIdentical is the CLI-level determinism check:
// -parallel N must not change a single byte of the report.
func TestParallelOutputByteIdentical(t *testing.T) {
	render := func(args ...string) string {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		return out.String()
	}
	seq := render("-parallel", "1", "E8", "E9", "E13")
	par := render("-parallel", "4", "E8", "E9", "E13")
	if seq != par {
		t.Errorf("parallel report diverged from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
}

func TestBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-nope"}); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestTraceDeterminism is the observability-era determinism contract:
// with the observed values stripped (ciphertext digests change with
// every run's fresh HPKE keys), the exported wire spans must be
// byte-identical across -parallel settings and across repeated runs,
// and the report on stdout must not change with the parallelism.
// E2 covers a mixnet cascade, E4 the oblivious DNS chains.
func TestTraceDeterminism(t *testing.T) {
	dir := t.TempDir()
	values := regexp.MustCompile(`(?m),"values":.*$`)
	runOnce := func(name, parallel string) (spans []byte, stdout string) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errw bytes.Buffer
		args := []string{"-parallel", parallel, "-trace-mode", "rotate", "-wirespans", path, "E2", "E4"}
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, out.String()
	}
	raw, s1 := runOnce("t1.jsonl", "4")
	t2, s2 := runOnce("t2.jsonl", "1")
	t3, _ := runOnce("t3.jsonl", "4")
	t1 := values.ReplaceAll(raw, []byte("}"))
	if !bytes.Equal(t1, values.ReplaceAll(t2, []byte("}"))) {
		t.Errorf("span bytes differ between -parallel 4 and -parallel 1")
	}
	if !bytes.Equal(t1, values.ReplaceAll(t3, []byte("}"))) {
		t.Errorf("span bytes differ between two -parallel 4 runs")
	}
	if s1 != s2 {
		t.Errorf("report changed with parallelism while tracing")
	}

	recs, err := wiretrace.ParseJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("exported spans fail strict parse: %v", err)
	}
	if err := wiretrace.Check(recs); err != nil {
		t.Fatalf("exported spans fail Check: %v", err)
	}
	// Depth check: stitched across its rotations, an E2 message is the
	// chain sender → Mix 1 → Mix 2 → Mix 3 → Receiver.
	byID := map[string]wiretrace.Record{}
	for _, r := range recs {
		byID[r.Span] = r
	}
	want := []string{"client", "Mix 1", "Mix 2", "Mix 3", "Receiver"}
	found := false
	for _, r := range recs {
		if r.Name != "mixnet.deliver" {
			continue
		}
		var chain []string
		for cur, ok := r, true; ok; cur, ok = byID[cur.Parent] {
			chain = append([]string{cur.Vantage}, chain...)
		}
		if len(chain) >= 5 && strings.Join(chain, " → ") == strings.Join(want, " → ") {
			found = true
			break
		}
	}
	if !found {
		t.Errorf("no E2 delivery stitches to the 5-deep chain %s", strings.Join(want, " → "))
	}
}

// TestMetricsAndStatsFlags checks that -metrics writes a canonical
// exposition file and -stats prints ledger observation counts.
func TestMetricsAndStatsFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.prom")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-metrics", path, "-stats", "E2"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("metrics file fails strict parse: %v", err)
	}
	var rendered bytes.Buffer
	if err := telemetry.WriteExpFamilies(&rendered, fams); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, rendered.Bytes()) {
		t.Errorf("metrics file is not canonical (round-trip differs)")
	}
	if !strings.Contains(string(raw), telemetry.MetricSimnetMessages) {
		t.Errorf("metrics missing simnet counters:\n%s", raw)
	}
	if !strings.Contains(errw.String(), "ledger stats:") {
		t.Errorf("-stats output missing:\n%s", errw.String())
	}
	if !strings.Contains(errw.String(), "slowest experiments") {
		t.Errorf("telemetry summary missing:\n%s", errw.String())
	}
}

// TestListenFlag: -listen binds the observability server for the run
// (scrape-during-run coverage lives with loadgen and the telemetry
// httptest suite; here the wiring and the failure mode are the
// contract).
func TestListenFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-listen", "127.0.0.1:0", "E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "observability on http://") {
		t.Errorf("stderr does not announce the bound address:\n%s", errw.String())
	}
	if !strings.Contains(out.String(), "all 1 experiments reproduce the paper") {
		t.Errorf("report changed under -listen:\n%s", out.String())
	}

	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-listen", "256.0.0.1:0", "E8"}); code != 2 {
		t.Fatalf("unbindable -listen: exit = %d, want 2", code)
	}
}

// TestAuditDeterminism checks that -audit writes per-experiment
// provenance audits that are byte-identical across -parallel settings
// and across repeated runs (fresh keys, fresh ciphertexts), and that
// the report bytes are unchanged by auditing. E2 and E4 cover the
// simulated mixnet (virtual timestamps) and the two in-process DNS
// reproductions.
func TestAuditDeterminism(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(name, parallel string) (audit []byte, stdout string) {
		t.Helper()
		path := filepath.Join(dir, name)
		var out, errw bytes.Buffer
		args := []string{"-parallel", parallel, "-audit", path, "E2", "E4"}
		if code := run(&out, &errw, args); code != 0 {
			t.Fatalf("exit = %d, stderr = %s", code, errw.String())
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw, out.String()
	}
	a1, s1 := runOnce("a1.jsonl", "4")
	a2, s2 := runOnce("a2.jsonl", "1")
	a3, _ := runOnce("a3.jsonl", "4")
	if !bytes.Equal(a1, a2) {
		t.Errorf("audit bytes differ between -parallel 4 and -parallel 1")
	}
	if !bytes.Equal(a1, a3) {
		t.Errorf("audit bytes differ between two -parallel 4 runs")
	}
	if s1 != s2 {
		t.Errorf("report changed with parallelism while auditing")
	}
	for _, id := range []string{"E2", "E4"} {
		if !strings.Contains(string(a1), `"experiment":"`+id+`"`) {
			t.Errorf("audit file missing experiment %s header", id)
		}
	}
	if !strings.Contains(string(a1), `"type":"obs"`) {
		t.Errorf("audit file has no observation lines:\n%.400s", a1)
	}
}

// TestProfileFlags checks -cpuprofile/-memprofile produce non-empty
// pprof files.
func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-cpuprofile", cpu, "-memprofile", mem, "E8"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile missing: %v", err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}

func TestRunMultipleIDs(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"E9", "E13"}); code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "E9") || !strings.Contains(s, "E13") {
		t.Errorf("output missing experiments:\n%s", s)
	}
}

// TestExploreFindsPlantedViolation runs a small sweep over the planted
// fail-open probe and one fail-closed probe: the planted violation must
// be found, shrunk to a small replayable trace on disk, and the exit
// code must stay 0 (the planted probe is the negative control, not a
// failure).
func TestExploreFindsPlantedViolation(t *testing.T) {
	dir := t.TempDir()
	var out, errw bytes.Buffer
	code := run(&out, &errw, []string{"-explore", "-seeds", "2", "-traces", dir,
		"odoh", "odoh-failopen"})
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %s", code, errw.String())
	}
	s := out.String()
	if !strings.Contains(s, "planted fail-open violation found and shrunk") {
		t.Errorf("planted violation not reported:\n%s", s)
	}
	if !strings.Contains(s, "zero invariant violations on fail-closed cases") {
		t.Errorf("fail-closed cases not clean:\n%s", s)
	}
	b, err := os.ReadFile(filepath.Join(dir, "probe-odoh-failopen.trace.json"))
	if err != nil {
		t.Fatalf("minimized trace not written: %v", err)
	}
	tr, err := explore.DecodeTrace(b)
	if err != nil {
		t.Fatalf("trace artifact does not decode: %v", err)
	}
	if e := tr.Events(); e > 5 {
		t.Errorf("minimized trace has %d events, want <= 5", e)
	}
}

// TestExploreSelectionErrors pins the flag-validation and id-selection
// error paths.
func TestExploreSelectionErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(&out, &errw, []string{"-explore", "-seeds", "0"}); code != 2 {
		t.Errorf("-seeds 0: exit = %d, want 2", code)
	}
	out.Reset()
	errw.Reset()
	if code := run(&out, &errw, []string{"-explore", "bogus-id"}); code != 2 {
		t.Errorf("unknown id: exit = %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "bogus-id") {
		t.Errorf("diagnostic should name the id: %s", errw.String())
	}
}

// TestExploreReportByteIdenticalAcrossWorkers: the sweep report must
// not depend on the worker-pool width.
func TestExploreReportByteIdenticalAcrossWorkers(t *testing.T) {
	runWith := func(parallel string) string {
		var out, errw bytes.Buffer
		if code := run(&out, &errw, []string{"-explore", "-seeds", "2", "-parallel", parallel,
			"odns", "odoh-failopen"}); code != 0 {
			t.Fatalf("-parallel %s: exit = %d, stderr = %s", parallel, code, errw.String())
		}
		return out.String()
	}
	base := runWith("1")
	if got := runWith("8"); got != base {
		t.Errorf("report differs between -parallel 1 and 8:\n%s\n---\n%s", base, got)
	}
}
