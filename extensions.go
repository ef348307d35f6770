package cpq

import (
	"context"

	"repro/internal/core"
)

// This file exposes the one extension beyond the paper's core
// contribution: the distance range join, the classic join K-CPQ
// generalizes.

// WithinDistance streams every pair (p, q) with dist(p, q) <= eps to fn in
// no particular order; fn may return false to stop. It uses the paper's
// MINMINDIST pruning with the fixed bound eps. It is the non-cancellable
// shim over WithinDistanceContext.
func WithinDistance(p, q *Index, eps float64, fn func(Pair) bool, opts ...QueryOption) (Stats, error) {
	return WithinDistanceContext(context.Background(), p, q, eps, fn, opts...)
}

// WithinDistanceContext is WithinDistance under a context; see
// ClosestPairContext for the cancellation contract.
func WithinDistanceContext(ctx context.Context, p, q *Index, eps float64, fn func(Pair) bool, opts ...QueryOption) (Stats, error) {
	return core.WithinDistanceContext(ctx, p.tree, q.tree, eps, buildOptions(opts), fn)
}
