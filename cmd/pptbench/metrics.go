package main

// metricDef names one reported metric. BENCHMARK.json at the repository
// root lists the same metrics; benchmark_json_test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is an end-to-end metric's regression bound: the share of the
	// baseline median by which it may worsen.
	bound float64
}

// endToEnd are the metrics a user of the simulator sees, reported by
// every timed run (-trace 0). Wall time per simulated packet hop stands
// in for wall time per run because each seed draws a different amount
// of traffic at a fixed flow count, while the cost of a hop varies far
// less.
var endToEnd = []metricDef{
	{"run_ns_per_pkt", "ns", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics (-trace 1). Counts are per
// round; times come from the CPU profile of the traced rounds.
var perLayer = []metricDef{
	{"sim.events", "count", "lower", 0},
	{"sim.self_frac", "fraction", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"netsim.pkts", "count", "lower", 0},
	{"netsim.drops", "count", "lower", 0},
	{"netsim.self_frac", "fraction", "lower", 0},
	{"netsim.ns_per_pkt", "ns", "lower", 0},
	{"netsim.cross.pkts", "count", "lower", 0},
	{"netsim.cross.self_frac", "fraction", "lower", 0},
	{"netsim.cross.ns_per_pkt", "ns", "lower", 0},
	{"transport.sharded.rounds", "count", "lower", 0},
	{"transport.sharded.windows_skipped_frac", "fraction", "higher", 0},
	{"transport.sharded.barrier_frac", "fraction", "lower", 0},
	{"transport.sharded.self_frac", "fraction", "lower", 0},
	{"transport.sharded.us_per_round", "us", "lower", 0},
	{"transport.ppt.self_frac", "fraction", "lower", 0},
	{"transport.ppt.ns_per_pkt", "ns", "lower", 0},
	{"transport.ppt.efficiency", "fraction", "higher", 0},
	{"transport.dctcp.self_frac", "fraction", "lower", 0},
	{"transport.dctcp.ns_per_pkt", "ns", "lower", 0},
	{"transport.dctcp.efficiency", "fraction", "higher", 0},
	{"transport.self_frac", "fraction", "lower", 0},
	{"transport.ns_per_flow", "ns", "lower", 0},
	{"stats.self_frac", "fraction", "lower", 0},
	{"stats.ns_per_flow", "ns", "lower", 0},
	{"stats.resident_peak", "count", "lower", 0},
	{"stats.spilled_records", "count", "lower", 0},
	{"workload.self_frac", "fraction", "lower", 0},
	{"workload.ns_per_flow", "ns", "lower", 0},
	{"bufaware.self_frac", "fraction", "lower", 0},
	{"topo.self_frac", "fraction", "lower", 0},
	{"topo.build_ms", "ms", "lower", 0},
	{"bench.self_frac", "fraction", "lower", 0},
	{"other.self_frac", "fraction", "lower", 0},
	{"runtime.self_frac", "fraction", "lower", 0},
	{"gc.frac", "fraction", "lower", 0},
	{"mem.allocs", "count", "lower", 0},
	{"mem.alloc_mb", "MB", "lower", 0},
	{"mem.gc_cycles", "count", "lower", 0},
	{"span.workload_next_s", "s", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
	{"trace.samples", "count", "higher", 0},
	{"model.ppt.overall_avg_us", "us", "lower", 0},
	{"model.ppt.small_avg_us", "us", "lower", 0},
	{"model.ppt.small_p99_us", "us", "lower", 0},
	{"model.ppt.large_avg_us", "us", "lower", 0},
	{"model.dctcp.overall_avg_us", "us", "lower", 0},
	{"model.dctcp.small_avg_us", "us", "lower", 0},
	{"model.dctcp.small_p99_us", "us", "lower", 0},
	{"model.dctcp.large_avg_us", "us", "lower", 0},
}

// metricValue is one metric as the result line reports it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
