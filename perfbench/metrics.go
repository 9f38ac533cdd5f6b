package main

import "fmt"

// The metric tables. BENCHMARK.json lists the same names and units;
// TestBenchmarkJSONMatches keeps the two in step. For each per-layer
// metric, moves and on record which end-to-end metric a change in that
// layer should move, and on which workload.

// e2eMetric is an end-to-end metric: reported, with tracing off, by
// every workload. An op is one ODoH query or one mixnet message.
type e2eMetric struct{ name, unit, better string }

var endToEnd = []e2eMetric{
	{"setup_s", "s", "lower"},       // median of several set-ups in the run
	{"p50_ms", "ms", "lower"},       // op latency from its scheduled time
	{"ops_per_s", "1/s", "higher"},  // completed ops per second of the window
	{"heap_live_mb", "MB", "lower"}, // live heap after a forced GC at the end of the phase
}

// layerMetric is a per-layer metric, reported by a traced run. A
// workload that does not exercise the layer reports 0.
type layerMetric struct{ name, unit, better, moves, on string }

var perLayer = func() []layerMetric {
	m := []layerMetric{
		{"cpu_us_per_op", "us", "lower", "none: process user+sys CPU ÷ completed ops, ungraded as it would not hold steady", "odoh-open, mixnet-open"},
		{"odoh.client_self_us", "us", "lower", "cpu_us_per_op, p50_ms", "odoh-open"},
		{"http.client_hop_us", "us", "lower", "p50_ms, cpu_us_per_op", "odoh-open"},
		{"odoh.proxy_self_us", "us", "lower", "p50_ms", "odoh-open"},
		{"odoh.target_self_us", "us", "lower", "p50_ms, cpu_us_per_op", "odoh-open"},
		{"latency.p99_ms", "ms", "lower", "none: the tail, ungraded as it would not hold steady", "odoh-open, mixnet-open"},
		{"gen.conn_wait_p99_ms", "ms", "lower", "latency.p99_ms", "odoh-open"},
		{"ledger.obs_per_op", "count", "lower", "heap_live_mb", "odoh-open"},
		{"ledger.bytes_per_obs", "B", "lower", "heap_live_mb", "odoh-open"},
		{"ledger.derive_ms", "ms", "lower", "verdict_ms", "odoh-open"},
		{"core.analyze_ms", "ms", "lower", "verdict_ms", "odoh-open"},
		{"odoh.verdict_ms", "ms", "lower", "none (it is the verdict time itself)", "odoh-open"},
		{"mixnet.build_onion_us", "us", "lower", "cpu_us_per_op, p50_ms", "mixnet-open"},
		{"mixnet.mix_handle_us", "us", "lower", "cpu_us_per_op, p50_ms", "mixnet-open"},
		{"mixnet.receiver_handle_us", "us", "lower", "cpu_us_per_op, p50_ms", "mixnet-open"},
		{"mixnet.queue_wait_ms", "ms", "lower", "p50_ms, latency.p99_ms", "mixnet-open"},
		{"mixnet.batch_size", "count", "higher", "p50_ms, latency.p99_ms", "mixnet-open"},
		{"mixnet.timeout_flush_frac", "ratio", "lower", "p50_ms, latency.p99_ms", "mixnet-open"},
		{"nettransport.send_us", "us", "lower", "p50_ms, error_rate", "mixnet-open"},
		{"nettransport.hop_us", "us", "lower", "p50_ms, error_rate", "mixnet-open"},
		{"nettransport.frames_per_op", "count", "lower", "p50_ms, error_rate", "mixnet-open"},
		{"nettransport.lost", "count", "lower", "error_rate", "mixnet-open"},
		{"mixnet.dropped", "count", "lower", "error_rate", "mixnet-open"},
	}
	m = append(m, layerMetric{"experiments.pass_ms", "ms", "lower", "none graded: the E1–E16 wall time (wall_s × 1000)", "suite probe of every traced run"})
	for i := 1; i <= 16; i++ {
		moves := "none graded: an E1–E16 pass's CPU"
		if i == 5 {
			moves = "none graded: an E1–E16 pass's wall time (E5 is its critical path) and CPU"
		}
		m = append(m, layerMetric{fmt.Sprintf("experiments.E%d.wall_ms", i), "ms", "lower", moves, "suite probe of every traced run"})
	}
	m = append(m,
		layerMetric{"blindrsa.sign_us", "us", "lower", "none graded: an E1–E16 pass's wall time", "probe of every traced run; no effect on either workload"},
		layerMetric{"hpke.x25519_us", "us", "lower", "cpu_us_per_op", "mixnet-open most, odoh-open"},
		layerMetric{"hpke.floor_ratio", "ratio", "lower", "cpu_us_per_op", "mixnet-open most, odoh-open"},
		layerMetric{"gc.cpu_frac", "ratio", "lower", "cpu_us_per_op, latency.p99_ms", "all"},
		layerMetric{"gc.allocs_per_op", "count", "lower", "cpu_us_per_op, latency.p99_ms", "all"},
		layerMetric{"gc.bytes_per_op", "B", "lower", "cpu_us_per_op, latency.p99_ms", "all"},
		layerMetric{"gc.pause_p99_us", "us", "lower", "cpu_us_per_op, latency.p99_ms", "all"},
		layerMetric{"sched.latency_p99_us", "us", "lower", "cpu_us_per_op, latency.p99_ms", "all"},
		layerMetric{"gen.send_lag_p99_ms", "ms", "lower", "none: validity signal for the run's latency", "odoh-open, mixnet-open"},
	)
	for _, e := range append(endToEnd, e2eMetric{"cpu_us_per_op", "us", "lower"}) {
		m = append(m, layerMetric{"trace.overhead." + e.name, e.unit, "lower",
			"none: traced minus untraced " + e.name, "all"})
	}
	return m
}()
