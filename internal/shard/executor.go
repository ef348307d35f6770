package shard

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
)

// Executor runs one K-CPQ as scatter-gather over a shard set: it plans
// the shard-pair joins from the MINMINDIST between tile MBRs, runs them
// one after another closest-first, and K-merges each partial result into
// the running global answer.
type Executor struct {
	// Set is the partitioned data (required).
	Set *Set
}

// Result is one scatter-gather execution's outcome.
type Result struct {
	// Pairs is the global top K, ascending, bit-identical in distances
	// and tie order to the monolithic join's answer.
	Pairs []core.Pair
	// PlannedPairs is the number of shard pairs with work after
	// planning; PrunedPairs of those, how many the running top K
	// eliminated before their join.
	PlannedPairs int
	PrunedPairs  int
}

// planPair is one shard-pair join: A-side shard a against B-side shard
// b, with the MINMINDIST key between the two tile MBRs.
type planPair struct {
	a, b   int
	minmin float64
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
// shard products run first. Each join is an ordinary query, observed
// through opts.Observe like any other, and its result merges into the
// running top K. Tile-level MINMINDIST is a lower bound on every point
// pair of the product, so once the merged list holds K pairs, a shard
// pair whose MINMINDIST exceeds the K-th pair's key cannot contribute and
// is skipped whole — the tile-level analogue of the engine's node-pair
// pruning.
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

	res := Result{PlannedPairs: len(plan)}
	for _, p := range plan {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		if len(res.Pairs) == k {
			last := res.Pairs[k-1]
			if p.minmin > opts.Metric.Key(last.P, last.Q) {
				res.PrunedPairs++
				continue
			}
		}
		pairs, _, err := core.KClosestPairsContext(ctx, shards[p.a].a, shards[p.b].b, k, opts)
		if err != nil {
			return Result{}, err
		}
		res.Pairs = core.MergeTopK(opts.Metric, k, res.Pairs, pairs)
	}
	return res, nil
}
