package main

// The metric catalogue. Every run prints every end-to-end metric
// (untraced runs) or every per-layer metric (traced runs); a per-layer
// metric of a layer the workload does not exercise reads 0.

// endToEnd lists the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"expl_per_s", "1/s"},
	{"heap_live_mb", "MB"},
	{"fail_ratio", "ratio"},
	{"p50_ms.low", "ms"},
	{"p95_ms.low", "ms"},
	{"p50_ms.mid", "ms"},
	{"p95_ms.mid", "ms"},
	{"p50_ms.high", "ms"},
	{"p95_ms.high", "ms"},
	{"sustained_rps", "1/s"},
}

// perLayer lists the per-layer metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"scorecache.lookups", "count"},
	{"scorecache.hits", "count"},
	{"scorecache.misses", "count"},
	{"scorecache.batches", "count"},
	{"scorecache.evictions", "count"},
	{"scorecache.flip_lookups", "count"},
	{"scorecache.flip_hits", "count"},
	{"scorecache.hit_ratio", "ratio"},
	{"scorecache.flip_hit_ratio", "ratio"},
	{"scorecache.memo_ms", "ms"},
	{"matchers.busy_ms", "ms"},
	{"matchers.rows", "count"},
	{"matchers.rows_per_batch", "count"},
	{"matchers.featurize_ms", "ms"},
	{"embedding.lookups", "count"},
	{"embedding.hit_ratio", "ratio"},
	{"nn.forward_ms", "ms"},
	{"lattice.questions", "count"},
	{"lattice.pruned_queries", "count"},
	{"lattice.self_ms", "ms"},
	{"lattice.self_share", "ratio"},
	{"neighborhood.build_ms", "ms"},
	{"neighborhood.retrieval_ms", "ms"},
	{"core.explain_ms", "ms"},
	{"core.private_model_calls", "count"},
	{"core.seed_path_calls", "count"},
	{"core.truncated", "count"},
	{"core.triangles_self_ms", "ms"},
	{"core.counterfactuals_self_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.cpu_util", "ratio"},
	{"server.served", "count"},
	{"server.memoized", "count"},
	{"server.coalesced", "count"},
	{"server.rejected", "count"},
	{"server.queue_high_water", "count"},
	{"server.memo_hit_ratio", "ratio"},
	{"server.handle_ms_mean", "ms"},
	{"server.explain_ms_mean", "ms"},
	{"server.wait_ms_mean", "ms"},
	{"cluster.hop_ms_mean", "ms"},
	{"cluster.balance", "ratio"},
	{"cluster.failovers", "count"},
	{"cluster.batch_fanout", "count"},
	{"loadgen.sent", "count"},
	{"loadgen.succeeded", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"telemetry.trace_overhead_pct", "%"},
	{"stages.wall_ms", "ms"},
	{"stages.sum_self_ms", "ms"},
	{"stages.residual_pct", "%"},
	{"stages.root_self_ms", "ms"},
	{"stages.original_score_self_ms", "ms"},
	{"stages.engine_self_ms", "ms"},
	{"stages.model_self_ms", "ms"},
	{"stages.model_call_self_ms", "ms"},
	{"stages.transport_ms", "ms"},
	{"stages.hop_ms", "ms"},
	{"stages.server_wait_ms", "ms"},
}

// residualBoundPct is the stated bound on stages.residual_pct: the
// time of a traced run that no stage span claims must stay within this
// share of its wall time. A run outside it fails its output check.
const residualBoundPct = 1.0

// fillMetrics returns values as a metric map in catalogue order,
// reading missing names as 0.
func fillMetrics(catalogue []struct{ name, unit string }, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(catalogue))
	for _, m := range catalogue {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}
