package obs

import (
	"encoding/json"
	"strconv"
)

// EngineMetrics is the fixed metric set the CPQ engine records into — one
// struct of pre-registered handles so the per-query recording path does no
// name lookups. Everything is updated at query completion (plus one
// utilization sample per parallel run), so the hot traversal loop carries
// no metric work at all; per-event visibility is the Tracer's job.
type EngineMetrics struct {
	// Queries counts completed queries; QueryErrors the failed ones.
	Queries     *Counter
	QueryErrors *Counter
	// QuerySeconds is the query latency histogram (seconds).
	QuerySeconds *Histogram
	// QueryAccesses is the per-query disk access histogram — the paper's
	// cost metric, as a distribution.
	QueryAccesses *Histogram
	// AccessesTotal accumulates disk accesses over all queries, matching
	// the sum of core.Stats.Accesses() snapshots.
	AccessesTotal *Counter
	// ResultDistance is the K-th (largest reported) distance at query
	// completion.
	ResultDistance *Histogram
	// NodeCacheHits / NodeCacheMisses accumulate decoded-node cache
	// lookups; NodeCacheHitRatio is hits/lookups over those totals.
	NodeCacheHits     *Counter
	NodeCacheMisses   *Counter
	NodeCacheHitRatio *Gauge
	// WorkerUtilization is busy-time / (workers × wall-time) per parallel
	// query (0..1); sequential queries do not record it.
	WorkerUtilization *Histogram

	// reg is kept for the per-shard labeled series RecordShards mints on
	// demand: the shard axis is dynamic (tile counts vary per query), so
	// those handles cannot be pre-registered here. The registry's
	// get-or-create identity (name + label set) makes each lookup cheap
	// after the first query touches a shard id.
	reg *Metrics
}

// NewEngineMetrics registers the engine's metric set on m under the cpq_
// namespace and returns the handles.
func NewEngineMetrics(m *Metrics) *EngineMetrics {
	return &EngineMetrics{
		reg:         m,
		Queries:     m.Counter("cpq_queries_total", "Completed closest-pair queries."),
		QueryErrors: m.Counter("cpq_query_errors_total", "Closest-pair queries that returned an error."),
		QuerySeconds: m.Histogram("cpq_query_seconds", "Query latency in seconds.",
			ExpBuckets(100e-6, 4, 12)), // 100µs .. ~420s
		QueryAccesses: m.Histogram("cpq_query_accesses", "Disk accesses (buffer misses) per query.",
			ExpBuckets(4, 4, 12)),
		AccessesTotal: m.Counter("cpq_accesses_total", "Disk accesses (buffer misses) over all queries."),
		ResultDistance: m.Histogram("cpq_result_distance", "K-th closest distance at query completion.",
			ExpBuckets(1e-6, 10, 12)),
		NodeCacheHits:   m.Counter("cpq_node_cache_hits_total", "Decoded-node cache hits over all queries."),
		NodeCacheMisses: m.Counter("cpq_node_cache_misses_total", "Decoded-node cache misses over all queries."),
		NodeCacheHitRatio: m.Gauge("cpq_node_cache_hit_ratio",
			"Decoded-node cache hits / lookups over all queries (0 when no cache is attached)."),
		WorkerUtilization: m.Histogram("cpq_worker_utilization",
			"Busy time / (workers x wall time) per parallel query.",
			LinearBuckets(0.1, 0.1, 10)),
	}
}

// QueryReport is one finished query's cost summary, fed to EngineMetrics
// and the slow-query log by the engine.
type QueryReport struct {
	// Label describes the query (algorithm, K), as in the span label.
	Label string `json:"label"`
	// Seconds is the wall-clock latency.
	Seconds float64 `json:"seconds"`
	// Accesses is core.Stats.Accesses().
	Accesses int64 `json:"accesses"`
	// NodePairs and PointPairs are the work counters.
	NodePairs  int64 `json:"node_pairs"`
	PointPairs int64 `json:"point_pairs"`
	// CacheHits and CacheMisses are the decoded-node cache deltas.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Results is the number of pairs returned; KthDistance the largest
	// reported distance (0 when no results).
	Results     int     `json:"results"`
	KthDistance float64 `json:"kth_distance"`
	// Workers is the parallel worker count (1 = sequential).
	Workers int `json:"workers"`
	// Err is the error text for failed queries, empty on success.
	Err string `json:"err,omitempty"`
	// Explain, when non-nil, is the query's EXPLAIN/ANALYZE snapshot in
	// its canonical JSON form (internal/obs/explain). The facade attaches
	// it for explain-enabled queries so slow-query log lines carry the
	// full plan and execution breakdown of the outlier.
	Explain json.RawMessage `json:"explain,omitempty"`
}

// Record feeds one query report into the metric set. Nil-safe so the
// engine can call it unconditionally on its (possibly nil) handle.
func (em *EngineMetrics) Record(r QueryReport) {
	if em == nil {
		return
	}
	if r.Err != "" {
		em.QueryErrors.Inc()
		return
	}
	em.Queries.Inc()
	em.QuerySeconds.Observe(r.Seconds)
	em.QueryAccesses.Observe(float64(r.Accesses))
	em.AccessesTotal.Add(r.Accesses)
	if r.Results > 0 {
		em.ResultDistance.Observe(r.KthDistance)
	}
	em.NodeCacheHits.Add(r.CacheHits)
	em.NodeCacheMisses.Add(r.CacheMisses)
	if lookups := em.NodeCacheHits.Value() + em.NodeCacheMisses.Value(); lookups > 0 {
		em.NodeCacheHitRatio.Set(float64(em.NodeCacheHits.Value()) / float64(lookups))
	}
}

// ShardRecord is one shard's contribution to a sharded scatter-gather
// execution, fed to RecordShards by the shard executor at completion.
type ShardRecord struct {
	// Shard is the tile index (the metric label value).
	Shard int
	// Planned, Pruned and Joined count the shard-pair joins this shard
	// participated in: planned by the executor, eliminated by the
	// broadcast bound before dispatch, and actually dispatched.
	Planned, Pruned, Joined int64
	// Accesses is the shard's buffer-pool miss delta over the execution;
	// CacheHits/CacheMisses the decoded-node cache deltas.
	Accesses    int64
	CacheHits   int64
	CacheMisses int64
}

// RecordShards feeds one sharded execution's per-shard rows into the
// registry as cpq_shard_* counters labeled by shard id, so Prometheus
// exposition covers where a scatter-gather query's work went. Nil-safe on
// both the handle and a metric set built without a registry; like Record,
// it runs once per query on the gather goroutine, never inside a join.
func (em *EngineMetrics) RecordShards(rows []ShardRecord) {
	if em == nil || em.reg == nil {
		return
	}
	for _, r := range rows {
		l := Label{Key: "shard", Value: strconv.Itoa(r.Shard)}
		em.reg.Counter("cpq_shard_pairs_planned_total",
			"Shard-pair joins planned for this shard over all sharded queries.", l).Add(r.Planned)
		em.reg.Counter("cpq_shard_pairs_pruned_total",
			"Planned shard-pair joins the broadcast bound eliminated before dispatch.", l).Add(r.Pruned)
		em.reg.Counter("cpq_shard_pairs_joined_total",
			"Shard-pair joins dispatched for this shard.", l).Add(r.Joined)
		em.reg.Counter("cpq_shard_accesses_total",
			"Disk accesses (buffer-pool misses) charged to this shard's pools.", l).Add(r.Accesses)
		em.reg.Counter("cpq_shard_node_cache_hits_total",
			"Decoded-node cache hits on this shard's trees.", l).Add(r.CacheHits)
		em.reg.Counter("cpq_shard_node_cache_misses_total",
			"Decoded-node cache misses on this shard's trees.", l).Add(r.CacheMisses)
	}
}
