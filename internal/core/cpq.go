package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
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
// polls ctx every cancelStride steps (parallel workers per claimed batch)
// and returns ctx.Err() when it fires, with all buffer-pool pins released
// and all workers joined. A query that completes without the context
// firing returns results, counters and disk accesses byte-identical to
// the context-free call.
func KClosestPairsContext(ctx context.Context, ta, tb *rtree.Tree, k int, opts Options) ([]Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	j, err := newJoin(ta, tb, k, opts)
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

	// Observability setup: the label and start time are only computed when
	// a consumer is attached, so the default query path takes no
	// timestamps and formats nothing.
	measure := opts.Metrics != nil || opts.SlowLog != nil
	var label string
	if opts.Tracer != nil || measure {
		label = QueryLabel(opts, k)
	}
	if opts.Tracer != nil {
		j.span = obs.StartSpanFrom(opts.Tracer, opts.Trace, label)
	}
	var started time.Time
	if measure {
		started = time.Now()
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
		case opts.Workers() > 1:
			err = j.runHeapParallel(ctx, root, opts.Workers())
		case opts.Algorithm == Heap:
			err = j.runHeap(ctx, root)
		default:
			err = j.runRecursive(ctx, root, 0)
		}
	}
	if err != nil {
		j.traceQueryEnd(0, err)
		if measure {
			r := obs.QueryReport{Label: label, Seconds: time.Since(started).Seconds(),
				Workers: opts.Workers(), Err: err.Error()}
			opts.Metrics.Record(r)
			opts.SlowLog.Record(r)
		}
		return nil, Stats{}, err
	}

	stats := j.stats.snapshot()
	// With a shared pool (e.g. a self join) report the delta once.
	stats.IOP = ta.Pool().Stats().Sub(startA)
	if ta.Pool() != tb.Pool() {
		stats.IOQ = tb.Pool().Stats().Sub(startB)
	}
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
	if measure {
		r := obs.QueryReport{
			Label:       label,
			Seconds:     time.Since(started).Seconds(),
			Accesses:    stats.Accesses(),
			NodePairs:   stats.NodePairsProcessed,
			PointPairs:  stats.PointPairsCompared,
			CacheHits:   stats.NodeCacheHits,
			CacheMisses: stats.NodeCacheMisses,
			Results:     len(pairs),
			Workers:     opts.Workers(),
		}
		if len(pairs) > 0 {
			r.KthDistance = pairs[len(pairs)-1].Dist
		}
		opts.Metrics.Record(r)
		opts.SlowLog.Record(r)
	}
	return pairs, stats, nil
}

// QueryLabel renders the query description used as the span label and the
// metrics/slow-log aggregation key. Exported so the facade's explain path
// labels its plan exactly like the engine labels its span.
func QueryLabel(opts Options, k int) string {
	if w := opts.Workers(); w > 1 {
		return fmt.Sprintf("%s k=%d par=%d", opts.Algorithm, k, w)
	}
	return fmt.Sprintf("%s k=%d", opts.Algorithm, k)
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
