package main

import (
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// runTraced runs one traced phase of a workload at 100 ops/s with the
// given delays. The delays are slept, and sleeps overshoot by up to
// about a millisecond, so they are a few milliseconds long; the low
// rate keeps the slowed system out of overload.
func runTraced(t *testing.T, run func(config) (*outcome, error), d delays) *outcome {
	t.Helper()
	o, err := run(config{seed: 3, rate: 100, window: 3 * time.Second, workers: 2, tr: newTracer(time.Now()), delays: d})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) > 0 {
		t.Fatalf("run failed its checks: %v", o.problems)
	}
	return o
}

// TestTracedRunsAddUp runs each open-loop workload traced and checks
// that it passes every check, the trace's included: segments sum to
// each request's total, and mixnet frames are conserved.
func TestTracedRunsAddUp(t *testing.T) {
	for name, run := range map[string]func(config) (*outcome, error){"odoh-open": runODoH, "mixnet-open": runMixnet} {
		t.Run(name, func(t *testing.T) {
			o := runTraced(t, run, delays{})
			if o.failed > 0 || o.attempted < 200 {
				t.Errorf("%d of %d ops failed", o.failed, o.attempted)
			}
		})
	}
}

// checkAttribution asserts that a delay injected into one wrapper shows
// up in the named layer metric, leaves the other layers flat, and
// raises p50_ms by at least minP50Rise.
func checkAttribution(t *testing.T, base, slow *outcome, delay time.Duration, named string, flat []string, minP50Rise time.Duration) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector slows every layer several times over, so timings do not compare")
	}
	want := us(delay)
	if got := slow.layer[named] - base.layer[named]; got < 0.7*want || got > 1.6*want {
		t.Errorf("%s rose by %.0fus; injected %.0fus", named, got, want)
	}
	for _, m := range flat {
		if d := slow.layer[m] - base.layer[m]; math.Abs(d) > 0.35*want {
			t.Errorf("%s moved by %.0fus (%.0f -> %.0f); it should stay flat", m, d, base.layer[m], slow.layer[m])
		}
	}
	if rise := slow.e2e["p50_ms"] - base.e2e["p50_ms"]; rise < ms(minP50Rise) {
		t.Errorf("p50_ms rose by %.3fms; want at least %.3fms", rise, ms(minP50Rise))
	}
}

func TestAttributionODoHTargetHandler(t *testing.T) {
	const delay = 3 * time.Millisecond
	base := runTraced(t, runODoH, delays{})
	slow := runTraced(t, runODoH, delays{targetHandler: delay})
	checkAttribution(t, base, slow, delay, "odoh.target_self_us",
		[]string{"odoh.client_self_us", "http.client_hop_us", "odoh.proxy_self_us"}, delay)
}

func TestAttributionMixnetSend(t *testing.T) {
	const delay = 3 * time.Millisecond
	base := runTraced(t, runMixnet, delays{})
	slow := runTraced(t, runMixnet, delays{send: delay})
	// A message crosses four Sends: the injection and one per mix.
	checkAttribution(t, base, slow, delay, "nettransport.send_us",
		[]string{"mixnet.build_onion_us", "mixnet.mix_handle_us", "mixnet.receiver_handle_us", "nettransport.hop_us"}, 4*delay)
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step: same workloads, same metric names, units and directions.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the program has %d", names, len(workloads))
	}
	var e2e, layer []string
	for _, m := range endToEnd {
		e2e = append(e2e, m.name+" "+m.unit+" "+m.better)
	}
	for _, m := range perLayer {
		layer = append(layer, m.name+" "+m.unit+" "+m.better)
	}
	var je2e, jlayer []string
	for _, m := range doc.EndToEnd {
		je2e = append(je2e, m.Name+" "+m.Unit+" "+m.Better)
	}
	for _, m := range doc.PerLayer {
		jlayer = append(jlayer, m.Name+" "+m.Unit+" "+m.Better)
	}
	if !slices.Equal(e2e, je2e) {
		t.Errorf("end_to_end differs:\n program %v\n json    %v", e2e, je2e)
	}
	if !slices.Equal(layer, jlayer) {
		t.Errorf("per_layer differs:\n program %v\n json    %v", layer, jlayer)
	}
}
