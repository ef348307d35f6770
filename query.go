package cpq

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/incremental"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/shard"
)

// Pair is one closest-pair result.
type Pair = core.Pair

// Stats reports the cost of a query; Stats.Accesses() is the paper's disk
// access count.
type Stats = core.Stats

// Algorithm selects one of the paper's five CPQ algorithms.
type Algorithm = core.Algorithm

// The five algorithms of Section 3.
const (
	// NaiveAlgorithm recurses with no pruning (correctness baseline).
	NaiveAlgorithm = core.Naive
	// ExhaustiveAlgorithm (EXH) prunes on MINMINDIST > T.
	ExhaustiveAlgorithm = core.Exhaustive
	// SimpleAlgorithm (SIM) additionally tightens T via MINMAXDIST.
	SimpleAlgorithm = core.Simple
	// SortedDistancesAlgorithm (STD) additionally sorts candidates by
	// ascending MINMINDIST.
	SortedDistancesAlgorithm = core.SortedDistances
	// HeapAlgorithm (HEAP) is the iterative algorithm on a global
	// min-heap of node pairs. It is the default: the paper found it (with
	// STD) the most robust across configurations.
	HeapAlgorithm = core.Heap
)

// Metric is a Minkowski (L_p) distance metric. The zero value is the
// Euclidean metric, the paper's default; Section 2.1 notes the methods
// adapt to any Minkowski metric, and this implementation does.
type Metric = geom.Metric

// Euclidean returns the L2 metric (the default).
func Euclidean() Metric { return geom.L2() }

// Manhattan returns the L1 metric.
func Manhattan() Metric { return geom.L1() }

// Chebyshev returns the L-infinity metric.
func Chebyshev() Metric { return geom.LInf() }

// Minkowski returns the L_p metric for p >= 1.
func Minkowski(p float64) (Metric, error) { return geom.Lp(p) }

// queryConfig is the facade-level query configuration: the engine options
// plus what lives above the engine (the scatter-gather tile count, the
// explain capture).
type queryConfig struct {
	core    core.Options
	shards  int
	capture *explain.Capture
}

// QueryOption tunes a closest-pair query.
type QueryOption func(*queryConfig)

// WithAlgorithm selects the CPQ algorithm (default HeapAlgorithm).
func WithAlgorithm(a Algorithm) QueryOption {
	return func(o *queryConfig) { o.core.Algorithm = a }
}

// WithMetric selects the distance metric (default Euclidean).
func WithMetric(m Metric) QueryOption {
	return func(o *queryConfig) { o.core.Metric = m }
}

// WithParallelism runs the HEAP algorithm with n worker goroutines, each
// a sequential HEAP over independent subtree pairs, under one shared
// tighten-only pruning bound. n = 1 (the default) is the paper's
// sequential algorithm; n <= 0 selects runtime.GOMAXPROCS(0). A parallel
// query returns identical pairs, refs and order to the sequential one;
// only disk access counts — the paper's cost metric — may vary slightly
// from run to run, because when the bound tightens depends on goroutine
// scheduling. The recursive algorithms ignore the knob. Pair
// WithParallelism with WithBufferShards on the indexes so concurrent page
// reads do not serialize on one buffer-pool mutex.
func WithParallelism(n int) QueryOption {
	return func(o *queryConfig) {
		if n <= 0 {
			o.core.Parallelism = core.AutoParallelism
		} else {
			o.core.Parallelism = n
		}
	}
}

// WithShards runs the bichromatic queries (ClosestPair, KClosestPairs)
// as scatter-gather over t spatial tiles: both point sets are split by
// shared STR-order quantile boundaries, each tile gets its own R-tree
// pair on dedicated buffer pools, tile pairs whose MINMINDIST exceeds
// the current bound are pruned whole, and all in-flight tile joins share
// one broadcast tighten-only bound. Results are bit-identical (distances
// and tie order) to the unsharded query. t <= 1 (the default) keeps the
// monolithic join; the self-, semi- and range variants ignore the knob.
// The plan is t^2 tile pairs, so t is capped at (|P|+|Q|) / 2M, one tile
// per two full leaves' worth of points; EXPLAIN reports the count the
// query ran on.
//
// Sharding pays off when tile-level pruning can skip most of the T^2
// tile pairs — clustered data, or K-th distances far below the tile
// side. The partitioning cost (a full re-bulk-load of both sets) is paid
// per query, so the knob targets one-shot large joins, not repeated
// queries over a prebuilt index.
func WithShards(t int) QueryOption {
	return func(o *queryConfig) { o.shards = t }
}

func buildConfig(opts []QueryOption) queryConfig {
	c := queryConfig{core: core.DefaultOptions(core.Heap)}
	for _, f := range opts {
		f(&c)
	}
	return c
}

// buildJoinConfig resolves the configuration of a bichromatic query over
// p and q, capping the tile count as WithShards documents: a tile smaller
// than one leaf per side prunes nothing a leaf pair would not. A cap of 1
// or less leaves the monolithic join.
func buildJoinConfig(opts []QueryOption, p, q *Index) queryConfig {
	c := buildConfig(opts)
	c.shards = min(c.shards, int((p.Len()+q.Len())/int64(2*p.tree.Config().MaxEntries)))
	return c
}

// buildOptions resolves just the engine options, for the query variants
// that never shard.
func buildOptions(opts []QueryOption) core.Options {
	return buildConfig(opts).core
}

// shardedKClosestPairs routes a bichromatic K-CPQ through the
// scatter-gather executor: re-partition both sets into cfg.shards tiles,
// join the tile pairs under a broadcast bound, K-merge. The shard trees
// inherit p's tree geometry so per-shard traversals see the same page
// and fan-out regime as the monolithic join.
func shardedKClosestPairs(ctx context.Context, p, q *Index, k int, cfg queryConfig) ([]Pair, Stats, error) {
	itemsP, err := collectItems(p)
	if err != nil {
		return nil, Stats{}, err
	}
	itemsQ, err := collectItems(q)
	if err != nil {
		return nil, Stats{}, err
	}
	set, err := shard.PartitionContext(ctx, itemsP, itemsQ, shard.Config{
		Tiles:   cfg.shards,
		Tree:    p.tree.Config(),
		Capture: cfg.capture,
	})
	if err != nil {
		return nil, Stats{}, err
	}
	// The tile-bound collection runs only under an explain capture; the
	// nil-capture path must not pay for it (SetPlanShards is nil-safe, but
	// its arguments would still be built).
	if cfg.capture != nil {
		cfg.capture.SetPlanShards(cfg.shards, set.TileBounds())
	}
	ex := shard.Executor{Set: set, Capture: cfg.capture}
	res, err := ex.RunContext(ctx, k, cfg.core)
	if err != nil {
		return nil, Stats{}, errors.Join(err, set.Close())
	}
	if err := set.Close(); err != nil {
		return nil, Stats{}, err
	}
	return res.Pairs, res.Stats, nil
}

// collectItems drains an index's items for re-partitioning.
func collectItems(i *Index) ([]rtree.Item, error) {
	out := make([]rtree.Item, 0, i.tree.Len())
	err := i.tree.All(func(it rtree.Item) bool {
		out = append(out, it)
		return true
	})
	return out, err
}

// ClosestPair returns the closest pair between the two indexed point sets
// (the paper's 1-CPQ). It is the non-cancellable shim over
// ClosestPairContext.
func ClosestPair(p, q *Index, opts ...QueryOption) (Pair, Stats, error) {
	return ClosestPairContext(context.Background(), p, q, opts...)
}

// ClosestPairContext is ClosestPair under a context: a deadline or cancel
// interrupts the traversal within a bounded number of steps, releases all
// buffer-pool pins, joins all worker goroutines and returns ctx.Err().
// When the context never fires the results, paper counters and disk
// accesses are identical to the context-free call.
func ClosestPairContext(ctx context.Context, p, q *Index, opts ...QueryOption) (Pair, Stats, error) {
	cfg := buildJoinConfig(opts, p, q)
	if cfg.capture != nil {
		pairs, stats, err := explainKCPQ(ctx, p, q, 1, cfg)
		if err != nil {
			return Pair{}, stats, err
		}
		return pairs[0], stats, nil
	}
	if cfg.shards > 1 {
		pairs, stats, err := shardedKClosestPairs(ctx, p, q, 1, cfg)
		if err != nil {
			return Pair{}, stats, err
		}
		return pairs[0], stats, nil
	}
	return core.ClosestPairContext(ctx, p.tree, q.tree, cfg.core)
}

// KClosestPairs returns the k closest pairs between the two indexed point
// sets in ascending distance order (the paper's K-CPQ). If fewer than k
// pairs exist, all are returned. It is the non-cancellable shim over
// KClosestPairsContext.
func KClosestPairs(p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return KClosestPairsContext(context.Background(), p, q, k, opts...)
}

// KClosestPairsContext is KClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func KClosestPairsContext(ctx context.Context, p, q *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	cfg := buildJoinConfig(opts, p, q)
	if cfg.capture != nil {
		return explainKCPQ(ctx, p, q, k, cfg)
	}
	if cfg.shards > 1 {
		return shardedKClosestPairs(ctx, p, q, k, cfg)
	}
	return core.KClosestPairsContext(ctx, p.tree, q.tree, k, cfg.core)
}

// SelfClosestPair returns the closest pair of distinct points within one
// index (the paper's self-CPQ future-work variant). It is the
// non-cancellable shim over SelfClosestPairContext.
func SelfClosestPair(p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return SelfClosestPairContext(context.Background(), p, opts...)
}

// SelfClosestPairContext is SelfClosestPair under a context; see
// ClosestPairContext for the cancellation contract.
func SelfClosestPairContext(ctx context.Context, p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return core.SelfClosestPairContext(ctx, p.tree, buildOptions(opts))
}

// SelfKClosestPairs returns the k closest unordered pairs of distinct
// points within one index. It is the non-cancellable shim over
// SelfKClosestPairsContext.
func SelfKClosestPairs(p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return SelfKClosestPairsContext(context.Background(), p, k, opts...)
}

// SelfKClosestPairsContext is SelfKClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func SelfKClosestPairsContext(ctx context.Context, p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return core.SelfKClosestPairsContext(ctx, p.tree, k, buildOptions(opts))
}

// SemiClosestPairs returns, for every point of p, its nearest point in q
// (the paper's semi-CPQ future-work variant), sorted by ascending
// distance. The traversal is batched: one best-first search over q per
// leaf of p serves all of the leaf's points at once, at a fraction of the
// disk accesses of one nearest-neighbour search per point. Where two
// points of q are exactly equally near a point of p, which of them RefQ
// names is not specified. It is the non-cancellable shim over
// SemiClosestPairsContext.
func SemiClosestPairs(p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	return SemiClosestPairsContext(context.Background(), p, q, opts...)
}

// SemiClosestPairsContext is SemiClosestPairs under a context; see
// ClosestPairContext for the cancellation contract.
func SemiClosestPairsContext(ctx context.Context, p, q *Index, opts ...QueryOption) ([]Pair, Stats, error) {
	return core.SemiClosestPairsBatchedContext(ctx, p.tree, q.tree, buildOptions(opts))
}

// Traversal selects the incremental join's expansion policy (Hjaltason &
// Samet).
type Traversal = incremental.Traversal

// The three traversal policies of the incremental baseline.
const (
	BasicTraversal        = incremental.Basic
	EvenTraversal         = incremental.Even
	SimultaneousTraversal = incremental.Simultaneous
)

// JoinStats reports the cost of an incremental join.
type JoinStats = incremental.Stats

// JoinIterator streams closest pairs in ascending distance order.
type JoinIterator struct {
	it *incremental.Iterator
}

// JoinOption tunes an incremental join.
type JoinOption func(*incremental.Options)

// WithTraversal selects the expansion policy (default BasicTraversal).
func WithTraversal(t Traversal) JoinOption {
	return func(o *incremental.Options) { o.Traversal = t }
}

// WithMaxPairs bounds the number of pairs the join will produce, enabling
// the K-bounded queue pruning of the modified algorithm in Hjaltason &
// Samet.
func WithMaxPairs(k int) JoinOption {
	return func(o *incremental.Options) { o.MaxK = k }
}

// WithJoinMetric selects the incremental join's distance metric
// (default Euclidean).
func WithJoinMetric(m Metric) JoinOption {
	return func(o *incremental.Options) { o.Metric = m }
}

// NewIncrementalJoin starts an incremental distance join between the two
// indexes.
func NewIncrementalJoin(p, q *Index, opts ...JoinOption) (*JoinIterator, error) {
	var o incremental.Options
	for _, f := range opts {
		f(&o)
	}
	it, err := incremental.New(p.tree, q.tree, o)
	if err != nil {
		return nil, err
	}
	return &JoinIterator{it: it}, nil
}

// Next returns the next closest pair; ok is false when the join is
// exhausted.
func (j *JoinIterator) Next() (pair Pair, ok bool, err error) {
	return j.it.Next()
}

// Stats returns the join's cost counters so far.
func (j *JoinIterator) Stats() JoinStats { return j.it.Stats() }
