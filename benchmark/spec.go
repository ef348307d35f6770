package main

// runSeconds is the length of one measure phase under the driver.
const runSeconds = 10

// endToEnd is what a user of the facade sees. Every workload reports every
// one of them, and none is ever 0 (a bound is a share of the parent's
// value). The ISSUE's accesses_per_query, update_p50_us and error_rate are
// 0 or absent on some workloads, so they are reported under facade.* in
// perLayer, and failures also travel in the result line's failed/attempted.
// cpu_s_per_query is under facade.* too: on the reference box the host
// makes page faults 2.5x dearer for tens of minutes at a time, which moves
// mem-bigk's CPU per query by 40% at an unchanged query (README, "Noise").
var endToEnd = []specE2E{
	{"setup_s", "s", "lower", 0.25},
	{"query_p10_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"alloc_mb_per_query", "MB", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"index_mb", "MB", "lower", 0.02},
}

// perLayer metrics are timed from outside on twin trees or differenced from
// Stats/IOStats/MemStats around facade calls. A metric that does not apply
// to a workload reads 0 there. "est" metrics are a probe time × a count.
var perLayer = []specLayer{
	{"storage.pool_hit_ns", "ns", "lower"},
	{"storage.pool_miss_ns", "ns", "lower"},
	{"storage.page_read_ns", "ns", "lower"},
	{"storage.page_write_ns", "ns", "lower"},
	{"storage.hits_per_query", "count", "lower"},
	{"storage.reads_per_query", "count", "lower"},
	{"storage.evictions_per_query", "count", "lower"},
	{"storage.hit_ratio", "ratio", "higher"},
	{"storage.writes_per_update", "count", "lower"},
	{"storage.est_ms_per_query", "ms", "lower"},

	{"rtree.read_node_ns", "ns", "lower"},
	{"rtree.read_node_alloc_b", "B", "lower"},
	{"rtree.node_reads_per_query", "count", "lower"},
	{"rtree.nodecache_hit_ns", "ns", "lower"},
	{"rtree.nodecache_hit_ratio", "ratio", "higher"},
	{"rtree.bulkload_ns_per_point", "ns", "lower"},
	{"rtree.sort_str_ns_per_point", "ns", "lower"},
	{"rtree.scan_all_ms", "ms", "lower"},
	{"rtree.insert_us", "us", "lower"},
	{"rtree.delete_us", "us", "lower"},
	{"rtree.nodes", "count", "lower"},
	{"rtree.height", "count", "lower"},
	{"rtree.est_ms_per_query", "ms", "lower"},

	{"core.query_p50_ms", "ms", "lower"},
	{"core.node_pairs_per_query", "count", "lower"},
	{"core.sub_pairs_per_query", "count", "lower"},
	{"core.sub_pair_prune_ratio", "ratio", "higher"},
	{"core.point_pairs_per_query", "count", "lower"},
	{"core.max_queue", "count", "lower"},
	{"core.ns_per_node_pair", "ns", "lower"},
	{"core.leafscan_ns_per_point_pair", "ns", "lower"},
	{"core.par_speedup", "ratio", "higher"},
	{"core.par_efficiency", "ratio", "higher"},
	{"core.merge_topk_us", "us", "lower"},

	{"geom.minmin_key_ns", "ns", "lower"},
	{"geom.point_key_ns", "ns", "lower"},

	{"shard.partition_ms", "ms", "lower"},
	{"shard.run_ms", "ms", "lower"},
	{"shard.close_ms", "ms", "lower"},
	{"shard.pairs_planned", "count", "lower"},
	{"shard.pairs_pruned", "count", "higher"},
	{"shard.pair_prune_ratio", "ratio", "higher"},
	{"shard.phase_partition_ms", "ms", "lower"},
	{"shard.phase_build_ms", "ms", "lower"},
	{"shard.phase_dispatch_ms", "ms", "lower"},
	{"shard.phase_join_ms", "ms", "lower"},
	{"shard.phase_merge_ms", "ms", "lower"},
	{"shard.vs_mono_ratio", "ratio", "lower"},

	{"facade.overhead_ms", "ms", "lower"},
	{"facade.query_p50_ms", "ms", "lower"},
	{"facade.query_p90_ms", "ms", "lower"},
	{"facade.query_max_ms", "ms", "lower"},
	{"facade.self_cp_p50_ms", "ms", "lower"},
	{"facade.open_index_ms", "ms", "lower"},
	{"facade.mallocs_per_query", "count", "lower"},
	{"facade.gc_cycles_per_query", "count", "lower"},
	{"facade.gc_pause_ms_per_query", "ms", "lower"},
	{"facade.cpu_s_per_query", "s", "lower"},
	{"facade.accesses_per_query", "count", "lower"},
	{"facade.update_p50_us", "us", "lower"},
	{"facade.error_rate", "ratio", "lower"},

	{"obs.trace_overhead_ratio", "ratio", "lower"},
	{"obs.explain_overhead_ratio", "ratio", "lower"},

	{"floor.dc_self_cp_ms", "ms", "lower"},
	{"floor.self_cp_ratio", "ratio", "lower"},
}

// The JSON shapes of BENCHMARK.json, key for key. An end-to-end metric's
// bound is the share of the baseline by which it may worsen before that
// counts as a regression.
type (
	specFile struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []specWorkload `json:"workloads"`
		EndToEnd   []specE2E      `json:"end_to_end"`
		PerLayer   []specLayer    `json:"per_layer"`
	}
	specWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	specE2E struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	specLayer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
)

// buildSpec renders the tables of this package as BENCHMARK.json, so the
// file is generated (-print-spec) and a test pins it to the binary.
func buildSpec() specFile {
	s := specFile{
		Command:    []string{"go", "run", "-C", "benchmark", "repro/benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	return s
}

// declared lists the metrics a pass prints: the end-to-end ones with
// tracing off, the per-layer ones with it on.
func declared(trace bool) []specLayer {
	if trace {
		return perLayer
	}
	out := make([]specLayer, len(endToEnd))
	for i, m := range endToEnd {
		out[i] = specLayer{m.Name, m.Unit, m.Better}
	}
	return out
}
