package main

// The metric tables. BENCHMARK.json at the root of the repository carries
// the same names, units, directions and bounds for the driver; TestSmoke
// fails when the two disagree.

type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base value it may worsen by
}

// endToEnd are the metrics a user of `tessel serve` would see, measured on
// every workload by the untraced timed run.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p95_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_req", "ms", "lower", 0.20},
	{"server_rss_mb", "MB", "lower", 0.10},
	{"period_over_lb_geomean", "ratio", "lower", 0.001},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics of single layers, measured by the traced run.
// The layer is the name's first element and is a module of the repository.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "serve.hit_ms", unit: "ms", better: "lower"},
		{name: "serve.req_bytes", unit: "B", better: "lower"},
		{name: "serve.resp_bytes_per_req", unit: "B", better: "lower"},
		{name: "serve.self_ms.cold", unit: "ms", better: "lower"},
		{name: "serve.self_ms.hit", unit: "ms", better: "lower"},
		{name: "serve.self_ms.hit_extend", unit: "ms", better: "lower"},
		{name: "serve.non200", unit: "count", better: "lower"},
		{name: "serve.peak_rss_mb", unit: "MB", better: "lower"},
		{name: "sched.decode_placement_us", unit: "us", better: "lower"},
		{name: "sched.fingerprint_us", unit: "us", better: "lower"},
		{name: "sched.encode_schedule_us_per_kblock", unit: "us", better: "lower"},
		{name: "sched.validate_us_per_kblock", unit: "us", better: "lower"},
		{name: "engine.hit_lookup_us", unit: "us", better: "lower"},
		{name: "engine.miss_overhead_us", unit: "us", better: "lower"},
		{name: "engine.hits", unit: "count", better: "higher"},
		{name: "engine.misses", unit: "count", better: "lower"},
		{name: "engine.shared", unit: "count", better: "higher"},
		{name: "engine.evictions", unit: "count", better: "lower"},
		{name: "engine.hit_ratio", unit: "ratio", better: "higher"},
		{name: "engine.snapshot_ms", unit: "ms", better: "lower"},
		{name: "engine.restore_ms", unit: "ms", better: "lower"},
		{name: "admit.admit_ns", unit: "ns", better: "lower"},
		{name: "admit.admitted", unit: "count", better: "lower"},
		{name: "admit.queued", unit: "count", better: "lower"},
		{name: "admit.shed", unit: "count", better: "lower"},
		{name: "peer.fetch_ms", unit: "ms", better: "lower"},
		{name: "peer.ring_owners_ns", unit: "ns", better: "lower"},
		{name: "core.extend_ms.n16", unit: "ms", better: "lower"},
		{name: "core.extend_ms.n64", unit: "ms", better: "lower"},
		{name: "core.extend_ms.n256", unit: "ms", better: "lower"},
		{name: "core.phase_share.warmup", unit: "ratio", better: "lower"},
		{name: "core.phase_share.repetend", unit: "ratio", better: "lower"},
		{name: "core.phase_share.cooldown", unit: "ratio", better: "lower"},
		{name: "core.assignments", unit: "count", better: "lower"},
		{name: "core.solved", unit: "count", better: "lower"},
		{name: "core.pruned", unit: "count", better: "higher"},
		{name: "core.prune_ratio", unit: "ratio", better: "higher"},
		{name: "core.nr_swept", unit: "count", better: "lower"},
		{name: "repetend.solve_us", unit: "us", better: "lower"},
		{name: "repetend.period_probes", unit: "count", better: "lower"},
		{name: "repetend.period_relaxations", unit: "count", better: "lower"},
		{name: "repetend.local_search_swaps", unit: "count", better: "lower"},
		{name: "solver.solve_ms.nmb4", unit: "ms", better: "lower"},
		{name: "solver.solve_ms.nmb6", unit: "ms", better: "lower"},
		{name: "solver.solve_ms.nmb6_w2", unit: "ms", better: "lower"},
		{name: "solver.nodes.nmb6", unit: "count", better: "lower"},
		{name: "solver.nodes_per_s.nmb6", unit: "1/s", better: "higher"},
		{name: "solver.memo_hit_ratio.nmb6", unit: "ratio", better: "higher"},
		{name: "solver.allocs_per_solve.nmb6", unit: "count", better: "lower"},
		{name: "solver.nodes_per_search", unit: "count", better: "lower"},
		{name: "solver.workers_effective", unit: "count", better: "higher"},
		{name: "machine.calib_ms", unit: "ms", better: "lower"},
		{name: "machine.cores", unit: "count", better: "higher"},
		{name: "machine.gomaxprocs", unit: "count", better: "higher"},
		{name: "trace.overhead_pct", unit: "%", better: "lower"},
		{name: "trace.http_ms", unit: "ms", better: "lower"},
		{name: "trace.self_ms.serve", unit: "ms", better: "lower"},
		{name: "trace.self_ms.sched", unit: "ms", better: "lower"},
		{name: "trace.self_ms.engine", unit: "ms", better: "lower"},
		{name: "trace.self_ms.core", unit: "ms", better: "lower"},
		{name: "trace.layer_sum_ratio", unit: "ratio", better: "lower"},
	}
	for _, name := range coldInstances {
		defs = append(defs,
			metricDef{name: "serve.cold_ms." + name, unit: "ms", better: "lower"},
			metricDef{name: "core.search_ms." + name, unit: "ms", better: "lower"})
	}
	for _, n := range []string{"8", "16", "32", "64", "128", "256"} {
		defs = append(defs, metricDef{name: "serve.hit_extend_ms.n" + n, unit: "ms", better: "lower"})
	}
	return defs
}()
