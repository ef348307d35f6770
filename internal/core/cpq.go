package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/rtree"
)

// ErrEmptyInput is returned when either input tree holds no points, so no
// pair exists.
var ErrEmptyInput = errors.New("core: closest pair query over an empty data set")

// KClosestPairs finds the K closest pairs between the point sets stored in
// the two trees (Section 2.1). Results are sorted by ascending distance.
// When fewer than K pairs exist (K > |P|*|Q|) all pairs are returned. With
// distance ties the result is one of the valid instances, as in the paper.
//
// The trees may use different page sizes, node capacities and heights; the
// Options.Height strategy governs mismatched heights.
//
// KClosestPairs is the non-cancellable shim over KClosestPairsContext.
func KClosestPairs(ta, tb *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	return KClosestPairsContext(context.Background(), ta, tb, k, opts)
}

// KClosestPairsContext is KClosestPairs under a context: the traversal
// polls ctx every cancelStride steps (a parallel query also per seed
// expansion and per task) and returns ctx.Err() when it fires, with all
// buffer-pool pins released and all workers joined. A query that completes
// without the context firing returns results, counters and disk accesses
// byte-identical to the context-free call.
func KClosestPairsContext(ctx context.Context, ta, tb *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	return kClosestPairs(ctx, ta, tb, k, opts, false)
}

// kClosestPairs runs every K-CPQ: bichromatic, or with self set the self
// join of ta == tb. It validates, picks the traversal and reports.
func kClosestPairs(ctx context.Context, ta, tb *rtree.Tree, k int, opts Options, self bool) ([]Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	j, err := newJoin(ta, tb, k, opts, self)
	if err != nil {
		return nil, Stats{}, err
	}
	// Every path below — empty input, a failed page read, a cancelled
	// context, success — gives the scratch back; the pairs returned are
	// copied out of it first (kHeap.results).
	defer j.release()
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, Stats{}, ErrEmptyInput
	}

	workers := opts.Workers(ta, tb, k)

	// Observation starts after the argument and empty-input checks; a
	// query without an observer takes no timestamp and formats nothing.
	var q observed
	if o := opts.Observe; o != nil {
		q = o.start(j, k, self, workers)
	}

	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()
	startCA := ta.NodeCacheStats()
	startCB := tb.NodeCacheStats()

	root, err := j.rootPair()
	if err == nil {
		err = ctx.Err() // don't start a traversal under a dead context
	}
	if err == nil {
		switch {
		case workers > 1:
			err = j.runHeapParallel(ctx, root, workers)
		case opts.Algorithm == Heap:
			err = j.runHeap(ctx, root)
		default:
			err = j.runRecursive(ctx, root, 0)
		}
	}
	if err != nil {
		j.traceQueryEnd(0, err)
		q.finish(nil, Stats{}, err)
		return nil, Stats{}, err
	}

	stats := j.poolStats(startA, startB)
	ca := ta.NodeCacheStats().Sub(startCA)
	stats.Merge(Stats{NodeCacheHits: ca.Hits, NodeCacheMisses: ca.Misses})
	if ta != tb {
		cb := tb.NodeCacheStats().Sub(startCB)
		stats.Merge(Stats{NodeCacheHits: cb.Hits, NodeCacheMisses: cb.Misses})
	}
	// The span closes on the final bound, which reads the heap's top:
	// before results() sorts the heap out of heap order.
	j.traceQueryEnd(len(j.kheap.pairs), nil)
	pairs := j.kheap.results(j.metric)
	q.finish(pairs, stats, nil)
	return pairs, stats, nil
}

// ClosestPair finds the single closest pair (the 1-CPQ of Section 2.1),
// using the K = 1 specializations (Inequality 2 pruning) automatically.
//
// ClosestPair is the non-cancellable shim over ClosestPairContext.
func ClosestPair(ta, tb *rtree.Tree, opts Options) (Pair, Stats, error) {
	return ClosestPairContext(context.Background(), ta, tb, opts)
}

// ClosestPairContext is ClosestPair under a context; see
// KClosestPairsContext for the cancellation contract.
func ClosestPairContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) (Pair, Stats, error) {
	pairs, stats, err := KClosestPairsContext(ctx, ta, tb, 1, opts)
	if err != nil {
		return Pair{}, stats, err
	}
	if len(pairs) == 0 {
		return Pair{}, stats, ErrEmptyInput
	}
	return pairs[0], stats, nil
}
