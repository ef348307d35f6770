package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/core/bound"
)

// Executor runs one K-CPQ as scatter-gather over a shard set: it plans
// the shard-pair joins from the MINMINDIST between tile MBRs, dispatches
// them closest-first to a worker pool, couples all in-flight joins with
// one shared bound, and K-merges the partial results into the exact
// global answer.
type Executor struct {
	// Set is the partitioned data (required).
	Set *Set
	// Workers bounds concurrent shard-pair joins; 0 means GOMAXPROCS.
	// The count is additionally capped by the planned pair count.
	Workers int
}

// Result is one scatter-gather execution's outcome.
type Result struct {
	// Pairs is the global top K, ascending, bit-identical in distances
	// and tie order to the monolithic join's answer.
	Pairs []core.Pair
	// PlannedPairs is the number of shard pairs with work after
	// planning; PrunedPairs of those, how many the shared bound
	// eliminated at dispatch time.
	PlannedPairs int
	PrunedPairs  int
}

// planPair is one shard-pair join: A-side shard a against B-side shard
// b, with the MINMINDIST key between the two tile MBRs.
type planPair struct {
	a, b   int
	minmin float64
}

// runState is the executor's shared mutable state. Every field is
// guarded by mu; workers touch nothing else concurrently.
type runState struct {
	mu      sync.Mutex
	next    int
	pruned  int
	err     error
	results [][]core.Pair
}

// fail records the first error; later joins drain without dispatching.
func (st *runState) fail(err error) {
	st.mu.Lock()
	if st.err == nil {
		st.err = err
	}
	st.mu.Unlock()
}

// Run executes the K closest pairs query over the shard set. It is the
// context-free convenience wrapper; see RunContext.
func (e *Executor) Run(k int, opts core.Options) (Result, error) {
	return e.RunContext(context.Background(), k, opts)
}

// RunContext executes the K closest pairs query over the shard set.
//
// Planning enumerates every (A-shard, B-shard) pair with points on both
// sides and sorts by tile-level MINMINDIST, so the spatially closest
// shard products run first and seed the shared bound while it still
// prunes the most. At dispatch each queued pair is re-checked against
// the bound: tile-level MINMINDIST is a lower bound on every point pair
// of the product, so a pair whose MINMINDIST exceeds the bound cannot
// contribute to the global top K and is skipped whole — the tile-level
// analogue of the engine's node-pair pruning.
//
// Every join receives the bound as opts.SharedBound: it prunes against
// it and publishes its own sound upper bounds (a full K-heap threshold, a
// MINMAXDIST/MAXMAXDIST bound) through it, so a tight pair found in one
// tile prunes node pairs, and whole shard pairs still queued, in every
// other. Each join is observed through opts.Observe like any query.
func (e *Executor) RunContext(ctx context.Context, k int, opts core.Options) (Result, error) {
	if e.Set == nil || len(e.Set.shards) == 0 {
		return Result{}, fmt.Errorf("shard: executor has no shard set")
	}
	if k < 1 {
		return Result{}, fmt.Errorf("shard: k must be >= 1, got %d", k)
	}
	shards := e.Set.shards
	var plan []planPair
	for i, sa := range shards {
		if sa.a.Len() == 0 {
			continue
		}
		for j, sb := range shards {
			if sb.b.Len() == 0 {
				continue
			}
			plan = append(plan, planPair{a: i, b: j, minmin: opts.Metric.MinMinKey(sa.boundsA, sb.boundsB)})
		}
	}
	if len(plan) == 0 {
		return Result{}, core.ErrEmptyInput
	}
	sort.Slice(plan, func(i, j int) bool {
		if plan[i].minmin != plan[j].minmin {
			return plan[i].minmin < plan[j].minmin
		}
		if plan[i].a != plan[j].a {
			return plan[i].a < plan[j].a
		}
		return plan[i].b < plan[j].b
	})

	jopts := opts
	jopts.SharedBound = bound.New()
	st := &runState{results: make([][]core.Pair, len(plan))}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work(ctx, st, plan, jopts, k)
		}()
	}
	wg.Wait()
	if st.err != nil {
		return Result{}, st.err
	}
	return Result{
		Pairs:        core.MergeTopK(opts.Metric, k, st.results...),
		PlannedPairs: len(plan),
		PrunedPairs:  st.pruned,
	}, nil
}

// work is one executor worker: claim the next planned pair, re-check it
// against the shared bound, and join it.
func (e *Executor) work(ctx context.Context, st *runState, plan []planPair, jopts core.Options, k int) {
	shards := e.Set.shards
	for {
		if err := ctx.Err(); err != nil {
			st.fail(err)
			return
		}
		st.mu.Lock()
		if st.err != nil || st.next >= len(plan) {
			st.mu.Unlock()
			return
		}
		idx := st.next
		st.next++
		st.mu.Unlock()

		p := plan[idx]
		if p.minmin > jopts.SharedBound.Load() {
			st.mu.Lock()
			st.pruned++
			st.mu.Unlock()
			continue
		}
		pairs, _, err := core.KClosestPairsContext(ctx, shards[p.a].a, shards[p.b].b, k, jopts)
		if err != nil {
			st.fail(err)
			return
		}
		st.mu.Lock()
		st.results[idx] = pairs
		st.mu.Unlock()
	}
}
