package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"decoupling/internal/bench"
	"decoupling/internal/core"
	"decoupling/internal/faults"
	"decoupling/internal/ledger"
	"decoupling/internal/telemetry"
	"decoupling/internal/telemetry/wiretrace"
)

// TestODoHLegSmallScale runs the sharded-proxy leg at test scale and
// holds the acceptance properties the big runs are graded on: zero
// errors, every session request accounted, and — with the ledger on —
// the same knowledge tuple and verdict the table experiments derive.
func TestODoHLegSmallScale(t *testing.T) {
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	res, err := runODoH(200, 2, 16, 1, cls, lg, newLiveObs(nil), nil, 1, nil)
	if err != nil {
		t.Fatalf("odoh leg: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("odoh leg errored %d of %d requests", res.Errors, res.Requests)
	}
	if res.Requests < 200 {
		t.Fatalf("odoh leg issued %d requests for 200 clients; sessions are >= 1 request each", res.Requests)
	}
	if res.Latency.P50 <= 0 || res.Latency.Max < res.Latency.P99 {
		t.Fatalf("implausible latency stats: %+v", res.Latency)
	}

	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	if diffs := core.CompareTuples(expected, measured); len(diffs) != 0 {
		t.Errorf("knowledge tuples diverge under HTTP load: %v", diffs)
	}
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !v.Decoupled {
		t.Error("measured system not decoupled under load")
	}
}

func TestMixnetLegSmallScale(t *testing.T) {
	res, err := runMixnetLeg(1000, 3, 16, 1, newLiveObs(nil), nil, 1, nil)
	if err != nil {
		t.Fatalf("mixnet leg: %v", err)
	}
	if res.Errors != 0 || res.Lost != 0 {
		t.Fatalf("mixnet leg errors=%d lost=%d", res.Errors, res.Lost)
	}
	// 1000 clients -> 100 senders, floored to the 64 minimum -> 100.
	if res.Requests != 100 {
		t.Fatalf("mixnet senders = %d, want 100", res.Requests)
	}
	// Every message crosses each relay once plus the receiver hop.
	if res.Delivered != res.Requests*4 {
		t.Fatalf("delivered %d transport hops, want %d", res.Delivered, res.Requests*4)
	}
	// The satellite fix this PR lands: delivery latency is measured from
	// send to innermost-layer open, so quantiles must be nonzero and
	// ordered. Batching alone (threshold 8, 100ms flush) puts a floor
	// well above zero.
	if res.Latency.P50 <= 0 || res.Latency.P90 < res.Latency.P50 ||
		res.Latency.P99 < res.Latency.P90 || res.Latency.Max < res.Latency.P99 {
		t.Fatalf("mixnet latency quantiles not measured or unordered: %+v", res.Latency)
	}
}

// TestLiveScrapeDuringRun exercises the observability plane against a
// real (small) run: while both legs execute, a scraper hits /metrics
// and /statusz and every response must satisfy the strict parsers.
// Run under -race this also proves the hot-loop instrumentation and
// the HTTP handlers share state safely.
func TestLiveScrapeDuringRun(t *testing.T) {
	obs := newLiveObs(telemetry.NewMetrics())
	srv := httptest.NewServer(telemetry.ObsMux(obs.metrics, obs.status))
	defer srv.Close()

	done := make(chan struct{})
	var scrapeErr error
	var scrapes int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			resp, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				scrapeErr = err
				return
			}
			blob, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scrapeErr = err
				return
			}
			if _, err := telemetry.ParseExposition(bytes.NewReader(blob)); err != nil {
				scrapeErr = err
				return
			}
			resp, err = http.Get(srv.URL + "/statusz")
			if err != nil {
				scrapeErr = err
				return
			}
			blob, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scrapeErr = err
				return
			}
			var status bench.Status
			if err := json.Unmarshal(blob, &status); err != nil {
				scrapeErr = err
				return
			}
			scrapes++
		}
	}()

	obs.setPhase("odoh")
	if _, err := runODoH(100, 2, 8, 1, nil, nil, obs, nil, 1, nil); err != nil {
		t.Fatalf("odoh leg: %v", err)
	}
	obs.setPhase("mixnet")
	if _, err := runMixnetLeg(640, 2, 8, 1, obs, nil, 1, nil); err != nil {
		t.Fatalf("mixnet leg: %v", err)
	}
	close(done)
	wg.Wait()
	if scrapeErr != nil {
		t.Fatalf("mid-run scrape failed strict validation: %v", scrapeErr)
	}
	if scrapes == 0 {
		t.Fatal("scraper never completed a scrape during the run")
	}

	// After the run the counters must reconcile with the leg results.
	if got := obs.odoh.requests.Value(); got < 100 {
		t.Errorf("live odoh request counter = %d, want >= 100", got)
	}
	if got := obs.odoh.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge after run = %v, want 0", got)
	}
	if got := obs.mixnet.latency.Count(); got == 0 {
		t.Error("mixnet latency summary saw no observations")
	}
}

func TestBenchDocShape(t *testing.T) {
	doc := bench.Doc{Clients: 10, ODoH: bench.Leg{Requests: 5}}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"clients", "odoh", "mixnet"} {
		if _, ok := back[key]; !ok {
			t.Errorf("benchmark JSON missing %q", key)
		}
	}
	if _, ok := back["ledger"]; ok {
		t.Error("ledger block should be omitted when nil (-full runs)")
	}
}

func TestQuantiles(t *testing.T) {
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(i+1) * 1e6 // 1..100 ms
	}
	q := quantiles(ns)
	if q.P50 != 50 || q.P99 != 99 || q.Max != 100 {
		t.Fatalf("quantiles of 1..100ms: %+v", q)
	}
	if z := quantiles(nil); z != (bench.Latency{}) {
		t.Fatalf("quantiles(nil) = %+v, want zero", z)
	}
}

// TestMixnetLegChaosRecovers drives the relay cascade through a fault
// plan at test scale: burst loss on the first hop, a latency spike on
// the exit link with a tiny writer queue and a shed deadline so
// overload shedding actually engages. The leg must degrade loudly
// (counted injected drops/sheds, counted retries) and recover fully —
// every message delivered exactly once after the retry rounds, zero
// client-visible errors.
func TestMixnetLegChaosRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos leg waits out wall-clock fault windows; skipped in -short")
	}
	plan, err := faults.PlanFromSpec("loss:*>relay1:0.3@0-500ms;spike:relay2>receiver:2ms@0-1s")
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	ch := &chaos{plan: plan, inboxDepth: 96, outDepth: 8, shedAfter: time.Millisecond,
		maxErrRate: 0.05, minDelivered: 0.9}
	res, err := runMixnetLeg(640, 2, 16, 1, newLiveObs(nil), nil, 1, ch)
	if err != nil {
		t.Fatalf("mixnet chaos leg: %v", err)
	}
	if res.Errors != 0 {
		t.Errorf("chaos leg left %d messages undelivered after retries", res.Errors)
	}
	if got := ch.deliveredFrac.Load(); got != 1_000_000 {
		t.Errorf("delivered fraction = %d/1e6, want full recovery", got)
	}
	if ch.injectedWire.Load() == 0 {
		t.Error("30%% burst loss on the first hop injected no drops")
	}
	if ch.retries.Load() == 0 {
		t.Error("messages were lost but nothing was retried")
	}
	// Counters must surface in the faults block the benchmark document
	// and /statusz expose.
	fs := ch.summary(bench.Doc{Mixnet: res})
	if fs.Spec == "" || fs.Injected == 0 || fs.Retries == 0 {
		t.Errorf("faults summary dropped counters: %+v", fs)
	}
}

// TestChaosFailOpenConvicted plants the degradation mistake the paper
// warns about: under a permanent proxy outage, -fail-open clients fall
// back to a direct resolver run by the proxy operator. Availability is
// preserved — and the knowledge ledger must convict the run, because
// the operator now sees identity and query together.
func TestChaosFailOpenConvicted(t *testing.T) {
	if testing.Short() {
		t.Skip("fail-open conviction drives retry backoff on a wall clock; skipped in -short")
	}
	plan, err := faults.PlanFromSpec("crash:proxy@0-")
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	ch := &chaos{plan: plan, failOpen: true, inboxDepth: 16_384,
		maxErrRate: 0.05, minDelivered: 0.9}
	cls := ledger.NewClassifier()
	lg := ledger.New(cls, nil)
	res, err := runODoH(100, 2, 16, 1, cls, lg, newLiveObs(nil), nil, 1, ch)
	if err != nil {
		t.Fatalf("odoh chaos leg: %v", err)
	}
	if res.Errors != 0 {
		t.Errorf("fail-open fallback should preserve availability, got %d errors", res.Errors)
	}
	if ch.fallbacks.Load() == 0 {
		t.Fatal("permanent proxy outage never triggered the fail-open fallback")
	}
	if ch.injectedODoH.Load() == 0 {
		t.Error("proxy crash window injected no faults")
	}
	expected := core.ObliviousDNS()
	measured := lg.DeriveSystem(expected)
	v, err := core.Analyze(measured)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if v.Decoupled {
		t.Fatal("fail-open run still analyzes as DECOUPLED; the planted re-coupling escaped the ledger")
	}
	if diffs := core.CompareTuples(expected, measured); len(diffs) == 0 {
		t.Error("fail-open run shows no tuple diffs; expected the resolver entity to gain identity knowledge")
	}
}

// runTracedLegs drives both legs at test scale with every client
// traced, returning the plane and the ledger.
func runTracedLegs(t *testing.T, mode wiretrace.Mode) (*wiretrace.Plane, *ledger.Ledger) {
	t.Helper()
	cls := ledger.NewClassifier()
	lg := ledger.NewRetaining(cls, nil)
	obs := newLiveObs(telemetry.NewMetrics())
	plane := wiretrace.New(mode, 1)
	plane.SetHopSampling(true)
	plane.SetClock(func() time.Duration { return time.Since(obs.start) })
	obs.wire, obs.traceMode = plane, mode.String()
	if _, err := runODoH(120, 2, 8, 1, cls, lg, obs, plane, 1, nil); err != nil {
		t.Fatalf("odoh leg: %v", err)
	}
	if _, err := runMixnetLeg(640, 2, 8, 1, obs, plane, 1, nil); err != nil {
		t.Fatalf("mixnet leg: %v", err)
	}
	return plane, lg
}

// TestTracedRunRotateAuditsDecoupled is the wall-clock half of the
// trace-plane contract: with rotation on, a real loopback run (HTTP
// header propagation on the ODoH leg, frame-codec v2 extensions on the
// mixnet TCP leg) must produce a valid span artifact whose audit finds
// the trace plane knowing exactly what the protocol plane knows.
func TestTracedRunRotateAuditsDecoupled(t *testing.T) {
	plane, lg := runTracedLegs(t, wiretrace.ModeRotate)
	if plane.SpanCount() == 0 {
		t.Fatal("traced run produced no spans")
	}

	var buf bytes.Buffer
	if err := wiretrace.WriteJSONL(&buf, plane); err != nil {
		t.Fatalf("export: %v", err)
	}
	recs, err := wiretrace.ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("strict parse of exported spans: %v", err)
	}
	if err := wiretrace.Check(recs); err != nil {
		t.Fatalf("span invariants under load: %v", err)
	}
	st := wiretrace.Summarize(recs)
	if st.Rotations == 0 {
		t.Fatal("rotate-mode run recorded no trace-id rotations")
	}

	rep, err := wiretrace.Audit(plane, lg, core.ObliviousDNS())
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !rep.Decoupled {
		var out bytes.Buffer
		rep.WriteReport(&out)
		t.Fatalf("rotating trace plane audited COUPLED under load:\n%s", out.String())
	}

	if cs := wiretrace.SummarizeCritical(plane, 3); cs == nil || cs.Requests == 0 {
		t.Fatal("critical-path analyzer stitched no requests")
	}
}

// TestTracedRunNaiveIsConvicted plants the vulnerable configuration:
// one global trace id per request must let a split coalition re-link a
// client to its query, and the audit must convict it.
func TestTracedRunNaiveIsConvicted(t *testing.T) {
	plane, lg := runTracedLegs(t, wiretrace.ModeNaive)
	rep, err := wiretrace.Audit(plane, lg, core.ObliviousDNS())
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if rep.Decoupled {
		t.Fatal("naive global-trace-id run audited DECOUPLED; the planted coupling escaped")
	}
	if len(rep.Leaks) == 0 {
		t.Fatal("naive conviction carries no coalition leak evidence")
	}
}
