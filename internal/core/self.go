package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/rtree"
)

// SelfKClosestPairs answers the self-CPQ of the paper's future-work
// section (Section 6): both data sets are the same entity (P ≡ Q), and the
// result is the K closest unordered pairs of distinct points of one tree,
// each with RefP < RefQ.
//
// It is the K-CPQ join of the tree with itself in self mode (join.self):
// a diagonal pair (N, N) expands to the child pairs (c_i, c_t) with
// i <= t and a pair of distinct nodes to all child combinations, so every
// unordered point pair is considered exactly once. Every algorithm,
// Parallelism, metric and explain option applies as to KClosestPairs.
//
// SelfKClosestPairs is the non-cancellable shim over
// SelfKClosestPairsContext.
func SelfKClosestPairs(t *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	return SelfKClosestPairsContext(context.Background(), t, k, opts)
}

// SelfKClosestPairsContext is SelfKClosestPairs under a context; see
// KClosestPairsContext for the cancellation contract.
func SelfKClosestPairsContext(ctx context.Context, t *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if t.Len() < 2 {
		return nil, Stats{}, errors.New("core: self closest pair query needs at least two points")
	}
	return kClosestPairs(ctx, t, t, k, opts, true)
}

// SelfClosestPair returns the single closest pair of distinct points
// within one tree.
//
// SelfClosestPair is the non-cancellable shim over SelfClosestPairContext.
func SelfClosestPair(t *rtree.Tree, opts Options) (Pair, Stats, error) {
	return SelfClosestPairContext(context.Background(), t, opts)
}

// SelfClosestPairContext is SelfClosestPair under a context; see
// KClosestPairsContext for the cancellation contract.
func SelfClosestPairContext(ctx context.Context, t *rtree.Tree, opts Options) (Pair, Stats, error) {
	pairs, stats, err := SelfKClosestPairsContext(ctx, t, 1, opts)
	if err != nil {
		return Pair{}, stats, err
	}
	return pairs[0], stats, nil
}
