package cpq

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs/explain"
)

// ExplainReport is one query's EXPLAIN/ANALYZE snapshot: the plan
// (algorithm, K, workers) and the execution (phase wall breakdown,
// bound-tightening trajectory, span tree, full work counters). Render
// draws it as a text tree; JSON emits the canonical byte-stable form.
type ExplainReport = explain.Explain

// ExplainCapture collects one query's explain data. Pass it to queries
// with WithExplain, or use the Explain/ExplainContext convenience calls
// which manage one internally. A nil capture is free: every capture point
// in the engine costs one pointer comparison and allocates nothing.
type ExplainCapture = explain.Capture

// ExplainSpan is the query's span in the explain snapshot: its id, label,
// wall time, event count, result count and final bound. A query has
// exactly one; its parallel workers emit on it.
type ExplainSpan = explain.SpanNode

// NewExplainCapture returns an empty explain capture. tee, when non-nil,
// receives every trace event the capture sees, so an existing tracer
// keeps working while explain is on. A query that also has a WithTracer
// tees to that tracer instead: WithTracer wins.
func NewExplainCapture(tee Tracer) *ExplainCapture { return explain.New(tee) }

// WithExplain attaches an explain capture to the query: the capture
// becomes the query's tracer (an existing WithTracer is teed through, in
// place of the capture's own tee), and the plan and the per-phase
// execution rows are recorded. Call capture.Snapshot() after the query
// for the report. SemiClosestPairs and WithinDistance ignore it.
func WithExplain(c *ExplainCapture) QueryOption {
	return func(o *core.Options) { observer(o).Explain = c }
}

// Explain runs KClosestPairs with an explain capture attached and returns
// the results together with the EXPLAIN/ANALYZE report. It is the
// non-cancellable shim over ExplainContext.
func Explain(p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	return ExplainContext(context.Background(), p, q, k, opts...)
}

// ExplainContext is Explain under a context; see ClosestPairContext for
// the cancellation contract. The returned report covers the whole query:
// the plan (algorithm, K, workers), one "join" phase, the bound
// trajectory across every worker, the counters and the query's span.
func ExplainContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	c := NewExplainCapture(nil)
	pairs, stats, err := KClosestPairsContext(ctx, p, q, k, append(append([]QueryOption{}, opts...), WithExplain(c))...)
	if err != nil {
		return nil, stats, nil, err
	}
	return pairs, stats, c.Snapshot(), nil
}
