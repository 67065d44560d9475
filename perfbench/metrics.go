package main

// experimentIDs is the experiment registry at quick scale, in registry
// order; paper_quick reports one eval.<id>_s figure for each.
var experimentIDs = []string{
	"5g-projection", "ablation-accel", "ablation-crossband", "ablation-hybrid",
	"ablation-subgrid", "ablation-svdrank", "ablation-ttt", "appendix-a",
	"faultsweep", "fig10", "fig11", "fig12", "fig13", "fig14a", "fig14b", "fig15",
	"fig2a", "fig2b", "fig3", "fig4", "fig9", "goodputsweep",
	"table2", "table3", "table4", "table5",
}

// selfLayers are the layers the traced run has spans for; each gets a
// self.<layer>_s figure. "bench" is the benchmark's own time outside
// every call into the program.
var selfLayers = []string{
	"bench", "trace", "fleet", "sim", "obs", "eval",
	"ofdm", "chanmodel", "crossband", "cluster", "remserve",
}

// perLayer lists every figure of the traced run. README.md maps each
// to the end-to-end metric and workload it should move.
func perLayer() []metric {
	ms := []metric{
		{"trace.shared_build_ms", "ms", "lower"},

		{"fleet.build_s", "s", "lower"},
		{"fleet.epoch1_ms", "ms", "lower"},
		{"fleet.epoch_p50_ms", "ms", "lower"},
		{"fleet.epoch_p99_ms", "ms", "lower"},
		{"fleet.epoch_allocs_p50", "count", "lower"},
		{"fleet.finish_ms", "ms", "lower"},

		{"sim.streams", "count", "lower"},
		{"sim.seeded", "count", "lower"},
		{"sim.tapes", "count", "higher"},
		{"sim.windows", "count", "lower"},
		{"sim.spills", "count", "lower"},
		{"sim.seed_us", "us", "lower"},
		{"sim.window_seed_us", "us", "lower"},
		{"sim.live_bytes_per_ue", "bytes", "lower"},
		{"sim.eager_stream_us", "us", "lower"},

		{"mobility.handovers", "count", "lower"},
		{"mobility.failures", "count", "lower"},
		{"core.blocked", "count", "lower"},
		{"transport.flows", "count", "higher"},
		{"transport.stalls", "count", "lower"},
		{"transport.delivered_mb", "MB", "higher"},
		{"obs.timeline_events", "count", "lower"},

		{"obs.snapshot_ms", "ms", "lower"},
		{"obs.prom_text_ms", "ms", "lower"},
		{"obs.ndjson_ms", "ms", "lower"},
		{"obs.overhead_frac", "frac", "lower"},
		{"obs.overhead_frac_lo", "frac", "lower"},
		{"obs.overhead_frac_hi", "frac", "lower"},
		{"transport.overhead_frac", "frac", "lower"},
		{"transport.overhead_frac_lo", "frac", "lower"},
		{"transport.overhead_frac_hi", "frac", "lower"},

		{"ofdm.block_bler_us", "us", "lower"},
		{"chanmodel.tf_response_us", "us", "lower"},
		{"crossband.svd_estimate_ms", "ms", "lower"},

		{"remserve.submit_ms", "ms", "lower"},
		{"remserve.events_s", "s", "lower"},
		{"remserve.result_ms", "ms", "lower"},
		{"remserve.timeline_ms", "ms", "lower"},
		{"remserve.timeline_bytes", "bytes", "lower"},
		{"remserve.metrics_scrape_ms", "ms", "lower"},
		{"remserve.local_run_p50_s", "s", "lower"},
		{"remserve.local_run_p90_s", "s", "lower"},
		{"remserve.sharded_run_p50_s", "s", "lower"},
		{"remserve.sharded_run_p90_s", "s", "lower"},

		{"cluster.barrier_p50_ms", "ms", "lower"},
		{"cluster.barrier_p99_ms", "ms", "lower"},
		{"cluster.member_step_p50_ms", "ms", "lower"},
		{"cluster.member_step_p99_ms", "ms", "lower"},
		{"cluster.rpc_overhead_ms", "ms", "lower"},
		{"cluster.step_req_bytes", "bytes", "lower"},
		{"cluster.step_resp_bytes", "bytes", "lower"},
		{"cluster.replays", "count", "lower"},
	}
	for _, id := range experimentIDs {
		ms = append(ms, metric{"eval." + id + "_s", "s", "lower"})
	}
	for _, m := range endToEnd {
		ms = append(ms, metric{"tracing." + m.name + "_delta", m.unit, "lower"})
	}
	for _, l := range selfLayers {
		ms = append(ms, metric{"self." + l + "_s", "s", "lower"})
	}
	return ms
}
