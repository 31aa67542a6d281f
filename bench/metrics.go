package main

// metric describes one reported number. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Exact marks a simulated quantity or a count: it depends only on the
	// inputs, so two runs with one seed must agree on it bit for bit.
	Exact bool
}

// endToEnd are the metrics a user of the CLIs sees, measured untraced.
// amat_cycles is exact for one seed; its bound covers the spread across
// seeds, whose traces differ.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "records_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "amat_cycles", Unit: "cycles", Better: "lower", Bound: 0.05, Exact: true},
}

// hostTimeBound is the looser bound -compare reports per-layer host times
// against; they are noisier than the end-to-end medians and never fail a
// comparison on their own.
const hostTimeBound = 0.25

// tournamentComponents names sim.TournamentPrefetcher's components in
// priority order.
var tournamentComponents = []string{"planaria", "stride", "markov", "accel"}

// perLayer are the traced run's metrics, named <module>.<metric>. Host
// times come from the in-process traced run; exact values come from the
// CLI artifacts and the traced run's engines. README.md maps each to the
// end-to-end metric and workload it should move.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	host := func(name, unit, better string) metric { return metric{Name: name, Unit: unit, Better: better} }
	exact := func(name, unit, better string) metric {
		return metric{Name: name, Unit: unit, Better: better, Exact: true}
	}
	ms := []metric{
		host("trace.open_ms", "ms", "lower"),
		host("trace.decode_ns_per_record", "ns/record", "lower"),
		host("workloads.gen_ns_per_record", "ns/record", "lower"),
		host("sim.new_ms", "ms", "lower"),
		host("sim.step_ns_per_record", "ns/record", "lower"),
		host("sim.serial_ns_per_record", "ns/record", "lower"),
		host("sim.parallel_ns_per_record", "ns/record", "lower"),
		host("sim.parallel_speedup", "x", "higher"),
		host("sim.residual_ns_per_record", "ns/record", "lower"),
		host("sim.residual_frac", "frac", "lower"),
		host("sim.trace_overhead_frac", "frac", "lower"),
		host("core.slp_ns_per_access", "ns/access", "lower"),
		host("core.tlp_ns_per_access", "ns/access", "lower"),
		exact("core.slp_issue_frac", "frac", "higher"),
		exact("core.slp_promotions", "count", "higher"),
		exact("core.slp_snapshots", "count", "higher"),
		exact("core.tlp_issues", "count", "higher"),
		host("prefetch.train_ns_per_call", "ns/call", "lower"),
		host("prefetch.issue_ns_per_call", "ns/call", "lower"),
		host("prefetch.step_frac", "frac", "lower"),
		exact("prefetch.candidates_per_issue", "count", "higher"),
		exact("prefetch.queue.candidates", "count", "lower"),
		exact("prefetch.queue.filtered_frac", "frac", "lower"),
		exact("prefetch.queue.issued", "count", "lower"),
		exact("prefetch.queue.dropped", "count", "lower"),
		exact("prefetch.accuracy", "frac", "higher"),
		exact("prefetch.coverage", "frac", "higher"),
	}
	for _, c := range tournamentComponents {
		p := "prefetch.tournament." + c + "."
		ms = append(ms,
			host(p+"train_ns_per_call", "ns/call", "lower"),
			host(p+"issue_ns_per_call", "ns/call", "lower"),
			host(p+"peek_ns_per_call", "ns/call", "lower"),
			exact(p+"win_frac", "frac", "higher"))
	}
	return append(ms,
		host("prefetch.tournament.meta_ns_per_issue", "ns/call", "lower"),
		host("cache.replay_ns_per_access", "ns/access", "lower"),
		exact("cache.hit_rate", "frac", "higher"),
		exact("cache.writebacks", "count", "lower"),
		exact("cache.useful_prefetches", "count", "higher"),
		exact("cache.pollution_evicts", "count", "lower"),
		host("dram.replay_ns_per_request", "ns/request", "lower"),
		exact("dram.replay_fidelity", "ratio", "higher"),
		exact("dram.requests_per_record", "ratio", "lower"),
		exact("dram.row_hit_rate", "frac", "higher"),
		exact("dram.avg_demand_read_latency_cycles", "cycles", "lower"),
		exact("dram.write_frac", "frac", "lower"),
		host("sweepfarm.job_ms_p50", "ms", "lower"),
		host("sweepfarm.job_ms_p80", "ms", "lower"),
		host("sweepfarm.pool_efficiency", "frac", "higher"),
		host("obs.write_ms_p50", "ms", "lower"),
		host("runtime.alloc_bytes_per_record", "B/record", "lower"),
		host("runtime.gc_cycles", "count", "lower"),
		host("runtime.gc_pause_ms", "ms", "lower"),
	)
}
