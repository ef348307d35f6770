package cpq

import (
	"context"

	"repro/internal/core"
	"repro/internal/obs/explain"
)

// ExplainReport is one query's EXPLAIN/ANALYZE snapshot: the plan
// (algorithm, K, workers) and the execution (phase wall breakdown,
// bound-tightening trajectory, full work counters). Render
// draws it as a text tree; JSON emits the canonical byte-stable form.
type ExplainReport = explain.Explain

// ExplainCapture collects one query's explain data. Pass it to queries
// with WithExplain, or use the Explain/ExplainContext convenience calls
// which manage one internally. A nil capture is free: every capture point
// in the engine costs one pointer comparison and allocates nothing.
type ExplainCapture = explain.Capture

// NewExplainCapture returns an empty explain capture. Its argument is the
// slot of the retired trace tee, kept so existing callers compile; it
// must be nil, and anything else panics.
func NewExplainCapture(tee any) *ExplainCapture {
	if tee != nil {
		panic("cpq: NewExplainCapture takes no tee; pass nil")
	}
	return new(ExplainCapture)
}

// WithExplain attaches an explain capture to the query: the plan, each
// tightening of the pruning bound and the totals are recorded. Call
// capture.Snapshot() after the query for the report. SemiClosestPairs and
// WithinDistance ignore it.
func WithExplain(c *ExplainCapture) QueryOption {
	return func(o *core.Options) { o.Explain = c }
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
// trajectory across every worker and the counters.
func ExplainContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, *ExplainReport, error) {
	c := NewExplainCapture(nil)
	pairs, stats, err := KClosestPairsContext(ctx, p, q, k, append(append([]QueryOption{}, opts...), WithExplain(c))...)
	if err != nil {
		return nil, stats, nil, err
	}
	return pairs, stats, c.Snapshot(), nil
}
