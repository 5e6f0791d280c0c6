package main

import "fmt"

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// metrics (TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports; every workload reports
// every one. A pass of fixed work is the suite, one scenario per unit
// (paper-suite); the 2-Choices budget plus the 3-Majority runs
// (many-colors); the agents plus the cluster runs (per-node); and a block
// of serveBlock requests (serve-mix). The primary operation behind
// op_p50_ms/op_p90_ms is an interactive scenario's decode+RunChecked
// (paper-suite; see slowScenario), a 2-Choices round from the n-color
// start (many-colors), an agents-engine round (per-node), and a cache-hit
// request (serve-mix). Every time is calibrated (see timed): wall_s sums,
// over a pass's units, each unit's median time over the run; the op
// quantiles are over all the run's operations; setup_s is the median of
// the run's set-ups. peak_heap_mb is the highest of the units' smallest
// peaks (see phase.heap).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_heap_mb", "MiB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

// perLayer are the metrics a traced run reports, grouped by the layer they
// measure. A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	// scenario: spans around decode and RunChecked (paper-suite); the
	// suite-start and last cell-done progress events split RunChecked into
	// prepare (decode check, expand), execute and reduce+expect.
	{"scenario.decode_ms", "ms"},
	{"scenario.prepare_s", "s"},
	{"scenario.execute_s", "s"},
	{"scenario.reduce_expect_s", "s"},
	{"scenario.runs", "count"},
	{"scenario.wall_s.e01", "s"},
	{"scenario.wall_s.e02", "s"},
	{"scenario.wall_s.e03", "s"},
	{"scenario.wall_s.e04", "s"},
	{"scenario.wall_s.e05", "s"},
	{"scenario.wall_s.e06", "s"},
	{"scenario.wall_s.e07", "s"},
	{"scenario.wall_s.e08", "s"},
	{"scenario.wall_s.e09", "s"},
	{"scenario.wall_s.e10", "s"},
	{"scenario.wall_s.e11", "s"},
	{"scenario.wall_s.e12", "s"},
	{"scenario.wall_s.e13", "s"},
	{"scenario.wall_s.n01", "s"},
	{"scenario.wall_s.n02", "s"},
	// scenario, service path: layer cells on serve-mix request bodies.
	{"scenario.decode_us", "us"},
	{"scenario.hash_us", "us"},
	// analytic: the h-Majority α enumeration at h = 6 over k uniform colors.
	{"analytic.alpha_enum_us.k4", "us"},
	{"analytic.alpha_enum_us.k8", "us"},
	{"analytic.alpha_enum_us.k16", "us"},
	{"analytic.alpha_terms.k4", "count"},
	{"analytic.alpha_terms.k8", "count"},
	{"analytic.alpha_terms.k16", "count"},
	// rules: the E09 population (n = 1024, h = 6, n-color start) on the
	// batch law vs the per-node law — the h-Majority cutoff calibration.
	{"rules.hmajority_batch_step_us", "us"},
	{"rules.hmajority_pernode_round_us", "us"},
	// rules: batch Step spans of the many-colors runs.
	{"rules.step_s.2-choices", "s"},
	{"rules.step_s.3-majority", "s"},
	{"rules.step_us_p50.2-choices", "us"},
	{"rules.step_us_p50.3-majority", "us"},
	{"rules.step_us_p99.2-choices", "us"},
	{"rules.step_us_p99.3-majority", "us"},
	{"rules.ns_per_live_color.2-choices", "ns"},
	{"rules.ns_per_live_color.3-majority", "ns"},
	// rng: sampler cells shaped like the workloads' draws.
	{"rng.binomial_inv_ns", "ns"},
	{"rng.binomial_btrs_ns", "ns"},
	{"rng.multinomial_ns_per_cat", "ns"},
	{"rng.alias_reset_ns_per_cat", "ns"},
	{"rng.alias_draw_ns", "ns"},
	{"rng.fillintn_ns", "ns"},
	// sim: the batch round loop of the many-colors runs.
	{"sim.rounds", "count"},
	{"sim.live_color_rounds", "count"},
	{"sim.loop_self_s", "s"},
	// sim: the sharded agents engine (per-node).
	{"sim.agents_round_ms_p50", "ms"},
	{"sim.agents_round_ms_p90", "ms"},
	{"sim.agents_rounds", "count"},
	{"rules.update_calls", "count"},
	{"sim.agents_ns_per_node_round", "ns"},
	// cluster: the event-driven message-passing engine (per-node).
	{"cluster.round_ms_p50", "ms"},
	{"cluster.round_ms_p90", "ms"},
	{"cluster.rounds", "count"},
	{"cluster.messages", "count"},
	{"cluster.ns_per_message", "ns"},
	{"cluster.useful_message_ratio", "ratio"},
	// serve: GET /metrics counters over the traced blocks, client-side
	// latencies, and a cache cell (serve-mix).
	{"serve.cache_hits", "count"},
	{"serve.cache_misses", "count"},
	{"serve.joined", "count"},
	{"serve.rejected", "count"},
	{"serve.executed", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.req_per_s", "1/s"},
	{"serve.resp_bytes_mean", "bytes"},
	{"serve.stream_ms_p50", "ms"},
	{"serve.miss_overhead_ms_p50", "ms"},
	{"serve.cache_get_ns", "ns"},
	// Go runtime, per pass of the traced phase (gc_cycles includes the
	// collections the benchmark forces before each unit and run), and the
	// tracing overhead (traced wall_s / untraced wall_s, both calibrated).
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

var units = func() map[string]string {
	u := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// metricSet is a result's metrics by name.
type metricSet map[string]metric

// set records a metric; the name must be one of endToEnd or perLayer.
func (m metricSet) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	m[name] = metric{Value: v, Unit: unit}
}
