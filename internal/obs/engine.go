package obs

import "encoding/json"

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
}

// NewEngineMetrics registers the engine's metric set on m under the cpq_
// namespace and returns the handles.
func NewEngineMetrics(m *Metrics) *EngineMetrics {
	return &EngineMetrics{
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
	// its canonical JSON form (internal/obs/explain). The engine attaches
	// it to a query that has an explain capture, so its slow-query log line
	// carries the full plan and execution breakdown of the outlier.
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
