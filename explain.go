package cpq

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// ExplainReport is one query's EXPLAIN/ANALYZE snapshot: the plan
// (algorithm, K, workers, shard layout) and the execution (phase wall
// breakdown, per-shard-pair dispatch decisions, bound-tightening
// trajectory, span tree, full work counters). Render draws it as a text
// tree; JSON emits the canonical byte-stable form.
type ExplainReport = explain.Explain

// ExplainCapture collects one query's explain data. Pass it to queries
// with WithExplain, or use the Explain/ExplainContext convenience calls
// which manage one internally. A nil capture is free: every capture point
// in the engine costs one pointer comparison and allocates nothing.
type ExplainCapture = explain.Capture

// ExplainSpan is one span of the query's trace in the explain snapshot.
type ExplainSpan = explain.SpanNode

// TraceContext identifies a span's position in a trace (trace id + span
// id) — the value the shard executor hands its joins so their spans
// correlate with the gather-side query span.
type TraceContext = obs.TraceContext

// NewExplainCapture returns an empty explain capture. tee, when non-nil,
// receives every trace event the capture sees, so an existing tracer
// keeps working while explain is on.
func NewExplainCapture(tee Tracer) *ExplainCapture { return explain.New(tee) }

// WithExplain attaches an explain capture to the query: the capture
// becomes the query's tracer (an existing WithTracer is teed through),
// the plan and per-phase/per-shard execution rows are recorded, and a
// slow-query log attached to the same query embeds the full snapshot in
// its JSON line. Call capture.Snapshot() after the query for the report.
func WithExplain(c *ExplainCapture) QueryOption {
	return func(o *queryConfig) { o.capture = c }
}

// Explain runs KClosestPairs with an explain capture attached and returns
// the results together with the EXPLAIN/ANALYZE report. It is the
// non-cancellable shim over ExplainContext.
func Explain(p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	return ExplainContext(context.Background(), p, q, k, opts...)
}

// ExplainContext is Explain under a context; see ClosestPairContext for
// the cancellation contract. The returned report covers the whole query:
// for sharded runs the plan carries the tile boundaries, the execution
// carries one row per planned shard pair, and the span tree correlates
// every shard join under the query's trace id.
func ExplainContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	c := NewExplainCapture(nil)
	pairs, stats, err := KClosestPairsContext(ctx, p, q, k, append(append([]QueryOption{}, opts...), WithExplain(c))...)
	if err != nil {
		return nil, stats, nil, err
	}
	return pairs, stats, c.Snapshot(), nil
}

// explainKCPQ is the explain-enabled K-CPQ runner: it wires the capture
// in as the query's tracer (teeing any user tracer), records the plan,
// routes the query (sharded or not), and feeds the finished snapshot to
// the slow-query log.
func explainKCPQ(ctx context.Context, p, q *Index, k int, cfg queryConfig) ([]Pair, Stats, error) {
	started := time.Now()
	cap := cfg.capture
	cap.SetTee(cfg.core.Tracer)
	cfg.core.Tracer = cap

	// The slow-query log is recorded here, not in the engine, so the
	// entry can embed the explain snapshot.
	slowLog := cfg.core.SlowLog
	cfg.core.SlowLog = nil

	// The shard plan (count, tile boundaries) is filled by the sharded
	// runner once the partitioner has built the tiles.
	cap.SetPlan(explain.Plan{
		Label:     core.QueryLabel(cfg.core, k),
		Algorithm: cfg.core.Algorithm.String(),
		K:         k,
		Workers:   cfg.core.Workers(),
	})

	var pairs []Pair
	var stats Stats
	var err error
	if cfg.shards > 1 {
		pairs, stats, err = shardedKClosestPairs(ctx, p, q, k, cfg)
	} else {
		var phaseStart time.Time
		if cap.Enabled() {
			phaseStart = time.Now()
		}
		pairs, stats, err = core.KClosestPairsContext(ctx, p.tree, q.tree, k, cfg.core)
		cap.Phase("join", time.Since(phaseStart).Nanoseconds())
	}
	seconds := time.Since(started)
	if err != nil {
		if slowLog != nil {
			slowLog.Record(QueryReport{Label: core.QueryLabel(cfg.core, k),
				Seconds: seconds.Seconds(), Workers: cfg.core.Workers(), Err: err.Error()})
		}
		return nil, stats, err
	}

	kth := 0.0
	if len(pairs) > 0 {
		kth = pairs[len(pairs)-1].Dist
	}
	cap.SetResult(seconds.Nanoseconds(), stats.ExplainStats(), len(pairs), kth)

	if slowLog != nil {
		r := QueryReport{
			Label:       core.QueryLabel(cfg.core, k),
			Seconds:     seconds.Seconds(),
			Accesses:    stats.Accesses(),
			NodePairs:   stats.NodePairsProcessed,
			PointPairs:  stats.PointPairsCompared,
			CacheHits:   stats.NodeCacheHits,
			CacheMisses: stats.NodeCacheMisses,
			Results:     len(pairs),
			KthDistance: kth,
			Workers:     cfg.core.Workers(),
		}
		// Embed the snapshot so an over-threshold line carries the full
		// plan and execution breakdown of the outlier.
		if raw, jerr := cap.Snapshot().JSON(); jerr == nil {
			r.Explain = raw
		}
		slowLog.Record(r)
	}
	return pairs, stats, nil
}
