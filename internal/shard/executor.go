package shard

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Executor runs one K-CPQ as scatter-gather over a shard set: it plans
// the shard-pair joins from the MINMINDIST between tile MBRs, dispatches
// them closest-first to a worker pool, couples all in-flight joins with a
// BoundBroadcaster, and K-merges the partial results into the exact
// global answer.
type Executor struct {
	// Set is the partitioned data (required).
	Set *Set
	// Workers bounds concurrent shard-pair joins; 0 means GOMAXPROCS.
	// The count is additionally capped by the planned pair count.
	Workers int
	// Capture, when non-nil, receives the execution's EXPLAIN/ANALYZE
	// rows: phase timings, one row per planned shard pair (joined or
	// pruned, with MINMINDIST vs. the bound at decision time) and per-shard
	// work attribution. nil — the default — skips all capture work; every
	// capture point costs one pointer comparison.
	Capture *explain.Capture
}

// ShardReport is one shard's row in the execution report.
type ShardReport struct {
	// ID is the shard index in tile order.
	ID int `json:"id"`
	// Tile is the shard's data MBR (union over both sets).
	Tile geom.Rect `json:"tile"`
	// NA and NB are the shard's point counts per set.
	NA int64 `json:"n_a"`
	NB int64 `json:"n_b"`
	// PlannedPairs counts shard pairs this shard participates in (on
	// either side) that survived planning; PrunedPairs counts how many
	// of those the broadcast bound eliminated before dispatch.
	PlannedPairs int `json:"planned_pairs"`
	PrunedPairs  int `json:"pruned_pairs"`
	// BoundTrajectory samples the global bound (as a distance) after
	// each of the shard's joins completed, in completion order — the
	// local view of how fast the broadcast bound tightened.
	BoundTrajectory []float64 `json:"bound_trajectory,omitempty"`
}

// Result is one scatter-gather execution's outcome.
type Result struct {
	// Pairs is the global top K, ascending, bit-identical in distances
	// and tie order to the monolithic join's answer.
	Pairs []core.Pair
	// Stats aggregates the shard joins' counters. Node-pair, sub-pair
	// and point-pair counts are summed across joins; I/O and node-cache
	// counters are measured at the executor level (pool deltas around
	// the whole execution), because concurrent joins share each shard's
	// pools and per-join deltas would double-count.
	Stats core.Stats
	// PlannedPairs is the number of shard pairs with work after
	// planning; PrunedPairs of those, how many the broadcast bound
	// eliminated at dispatch time.
	PlannedPairs int
	PrunedPairs  int
	// FinalBound is the broadcast bound at the end, as a distance.
	FinalBound float64
	// Shards holds one report row per shard, in tile order.
	Shards []ShardReport
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
	// statsParts holds each dispatched join's counters in its plan
	// slot; the executor folds them after the workers join, so the
	// aggregation runs on the gather goroutine with exclusive access.
	statsParts []core.Stats
	rows       []ShardReport
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
// shard products run first and seed the broadcast bound while it still
// prunes the most. At dispatch each queued pair is re-checked against
// the bound: tile-level MINMINDIST is a lower bound on every point pair
// of the product, so a pair whose MINMINDIST exceeds the bound cannot
// contribute to the global top K and is skipped whole — the tile-level
// analogue of the engine's node-pair pruning.
//
// The executor's span opens as a child of opts.Trace, and every shard
// join opens its span as a child of the executor's, so the joins' spans
// correlate under one trace id.
func (e *Executor) RunContext(ctx context.Context, k int, opts core.Options) (Result, error) {
	if e.Set == nil || len(e.Set.shards) == 0 {
		return Result{}, fmt.Errorf("shard: executor has no shard set")
	}
	if k < 1 {
		return Result{}, fmt.Errorf("shard: k must be >= 1, got %d", k)
	}
	shards := e.Set.shards
	tiles := len(shards)
	metric := opts.Metric
	capOn := e.Capture.Enabled()
	var tDispatch time.Time
	if capOn {
		tDispatch = time.Now()
	}

	rows := make([]ShardReport, tiles)
	var plan []planPair
	for i, sa := range shards {
		rows[i] = ShardReport{ID: i, Tile: sa.Tile, NA: sa.A.Len(), NB: sa.B.Len()}
		if sa.A.Len() == 0 {
			continue
		}
		for j, sb := range shards {
			if sb.B.Len() == 0 {
				continue
			}
			plan = append(plan, planPair{a: i, b: j, minmin: metric.MinMinKey(sa.boundsA, sb.boundsB)})
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
	for _, p := range plan {
		rows[p.a].PlannedPairs++
		if p.b != p.a {
			rows[p.b].PlannedPairs++
		}
	}

	span := startExecSpan(opts.Tracer, opts.Trace, tiles, k)
	traceShardPlan(span, len(plan))

	br := NewBoundBroadcaster()
	jopts := opts
	jopts.SharedBound = br.Bound()
	// Every shard join starts its span under the executor's.
	jopts.Trace = span.Context()

	// I/O and cache accounting happens here, not per join: concurrent
	// joins share each shard's pools, so per-join deltas double-count.
	snaps := make([]poolSnap, tiles)
	for i, sh := range shards {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		snaps[i] = snapshotShard(sh)
	}

	st := &runState{results: make([][]core.Pair, len(plan)), statsParts: make([]core.Stats, len(plan)), rows: rows}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(plan) {
		workers = len(plan)
	}
	var tJoin time.Time
	if capOn {
		tJoin = time.Now()
		e.Capture.Phase("dispatch", tJoin.Sub(tDispatch).Nanoseconds())
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int32) {
			defer wg.Done()
			e.work(ctx, worker, st, plan, br, jopts, k, span)
		}(int32(w))
	}
	wg.Wait()

	if st.err != nil {
		traceExecEnd(span, br.Load(), 0, st.err.Error())
		return Result{}, st.err
	}
	var tMerge time.Time
	if capOn {
		tMerge = time.Now()
		e.Capture.Phase("join", tMerge.Sub(tJoin).Nanoseconds())
	}

	res := Result{
		PlannedPairs: len(plan),
		PrunedPairs:  st.pruned,
		FinalBound:   metric.KeyToDist(br.Load()),
		Shards:       st.rows,
	}
	for i := range st.statsParts {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		// Zero the joins' shared-pool counters before folding: the
		// executor measures I/O and cache traffic once, at its own level
		// (see Result.Stats).
		part := st.statsParts[i]
		part.IOP, part.IOQ = storage.IOStats{}, storage.IOStats{}
		part.NodeCacheHits, part.NodeCacheMisses = 0, 0
		res.Stats.Merge(part)
	}
	shardDiffs := make([]core.Stats, tiles)
	for i, sh := range shards {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		shardDiffs[i] = diffShard(sh, snaps[i])
		res.Stats.Merge(shardDiffs[i])
	}
	res.Pairs = core.MergeTopK(metric, k, st.results...)
	traceExecEnd(span, br.Load(), len(res.Pairs), "")

	// Per-shard attribution: one row per shard feeds both the labeled
	// metrics registry and the explain snapshot. Runs once per query on
	// the gather goroutine, after the workers joined.
	recordShards(e.Capture, opts.Metrics, st.rows, shardDiffs)
	if capOn {
		e.Capture.Phase("merge", time.Since(tMerge).Nanoseconds())
		kth := 0.0
		if len(res.Pairs) > 0 {
			kth = res.Pairs[len(res.Pairs)-1].Dist
		}
		e.Capture.SetResult(time.Since(tDispatch).Nanoseconds(), res.Stats.ExplainStats(), len(res.Pairs), kth)
	}
	return res, nil
}

// recordShards folds the executor's per-shard rows into metric records
// (cpq_shard_* series labeled by shard id) and the explain snapshot.
// Nil-safe on both sinks.
func recordShards(ec *explain.Capture, em *obs.EngineMetrics, rows []ShardReport, diffs []core.Stats) {
	if ec == nil && em == nil {
		return
	}
	recs := make([]obs.ShardRecord, len(rows))
	stats := make([]explain.ShardStat, len(rows))
	for i, r := range rows {
		joined := int64(r.PlannedPairs - r.PrunedPairs)
		recs[i] = obs.ShardRecord{
			Shard:       i,
			Planned:     int64(r.PlannedPairs),
			Pruned:      int64(r.PrunedPairs),
			Joined:      joined,
			Accesses:    diffs[i].Accesses(),
			CacheHits:   diffs[i].NodeCacheHits,
			CacheMisses: diffs[i].NodeCacheMisses,
		}
		stats[i] = explain.ShardStat{
			Shard:       i,
			Planned:     int64(r.PlannedPairs),
			Pruned:      int64(r.PrunedPairs),
			Joined:      joined,
			Accesses:    diffs[i].Accesses(),
			CacheHits:   diffs[i].NodeCacheHits,
			CacheMisses: diffs[i].NodeCacheMisses,
		}
	}
	em.RecordShards(recs)
	ec.SetShards(stats)
}

// work is one executor worker: claim the next planned pair, re-check it
// against the broadcast bound, and join it.
func (e *Executor) work(ctx context.Context, worker int32, st *runState, plan []planPair, br *BoundBroadcaster, jopts core.Options, k int, span *obs.Span) {
	shards := e.Set.shards
	tiles := len(shards)
	capOn := e.Capture.Enabled()
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
		bound := br.Load()
		if p.minmin > bound {
			traceShardPruned(span, p.a, p.b, tiles, p.minmin)
			e.Capture.AddShardPair(explain.ShardPair{
				A: p.a, B: p.b, Status: explain.StatusPruned,
				MinMinDist: explain.Key(p.minmin), Bound: explain.Key(bound),
			})
			st.mu.Lock()
			st.pruned++
			st.rows[p.a].PrunedPairs++
			if p.b != p.a {
				st.rows[p.b].PrunedPairs++
			}
			st.mu.Unlock()
			continue
		}

		traceShardJoin(span, p.a, p.b, tiles, bound, worker)
		var tJoin time.Time
		if capOn {
			tJoin = time.Now()
		}
		pairs, stats, err := core.KClosestPairsContext(ctx, shards[p.a].A, shards[p.b].B, k, jopts)
		if err != nil {
			st.fail(err)
			return
		}
		if capOn {
			e.Capture.AddShardPair(explain.ShardPair{
				A: p.a, B: p.b, Status: explain.StatusJoined,
				MinMinDist: explain.Key(p.minmin), Bound: explain.Key(bound),
				Worker:     int(worker),
				DurationNS: time.Since(tJoin).Nanoseconds(),
				Results:    len(pairs),
				Accesses:   stats.Accesses(),
				NodePairs:  stats.NodePairsProcessed,
				PointPairs: stats.PointPairsCompared,
			})
		}
		sample := jopts.Metric.KeyToDist(br.Load())

		st.mu.Lock()
		st.results[idx] = pairs
		st.statsParts[idx] = stats
		st.rows[p.a].BoundTrajectory = append(st.rows[p.a].BoundTrajectory, sample)
		if p.b != p.a {
			st.rows[p.b].BoundTrajectory = append(st.rows[p.b].BoundTrajectory, sample)
		}
		st.mu.Unlock()
	}
}

// poolSnap captures one shard's I/O and cache counters.
type poolSnap struct {
	a, b   storage.IOStats
	ca, cb rtree.CacheStats
}

func snapshotShard(sh *Shard) poolSnap {
	return poolSnap{
		a:  sh.A.Pool().Stats(),
		b:  sh.B.Pool().Stats(),
		ca: sh.A.NodeCacheStats(),
		cb: sh.B.NodeCacheStats(),
	}
}

// diffShard folds a shard's counter deltas since snap into Stats form:
// A-side pools feed IOP, B-side pools feed IOQ, both caches feed the
// node-cache counters.
func diffShard(sh *Shard, snap poolSnap) core.Stats {
	ca := sh.A.NodeCacheStats().Sub(snap.ca)
	cb := sh.B.NodeCacheStats().Sub(snap.cb)
	return core.Stats{
		IOP:             sh.A.Pool().Stats().Sub(snap.a),
		IOQ:             sh.B.Pool().Stats().Sub(snap.b),
		NodeCacheHits:   ca.Hits + cb.Hits,
		NodeCacheMisses: ca.Misses + cb.Misses,
	}
}
