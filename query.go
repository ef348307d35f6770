package cpq

import (
	"context"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/incremental"
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

// QueryOption tunes a closest-pair query.
type QueryOption func(*core.Options)

// WithAlgorithm selects the CPQ algorithm (default HeapAlgorithm) of the
// bichromatic and the self closest-pair queries.
func WithAlgorithm(a Algorithm) QueryOption {
	return func(o *core.Options) { o.Algorithm = a }
}

// WithMetric selects the distance metric (default Euclidean).
func WithMetric(m Metric) QueryOption {
	return func(o *core.Options) { o.Metric = m }
}

// WithParallelism runs the HEAP algorithm with n worker goroutines, each
// a sequential HEAP over its fixed share of independent subtree pairs.
// n = 1 is the paper's sequential algorithm. n <= 0 is the default:
// runtime.GOMAXPROCS(0) workers where the task engine wins, which is when
// both trees are at least four levels high and k is at most a quarter of
// the smaller set, and the sequential algorithm elsewhere. That rule was
// measured with two workers on uniform data only. A parallel query
// returns identical pairs, refs and order to the sequential one, and its
// node- and point-pair counts repeat from run to run; only its disk
// access counts — the paper's cost metric — may vary slightly, because
// its workers share the buffer pool. Pass WithParallelism(1) for disk
// access counts that repeat exactly. The self queries honour it as the
// bichromatic ones do. The recursive algorithms ignore the knob. Pair a
// parallel query with WithBufferShards on the indexes so concurrent page
// reads do not serialize on one buffer-pool mutex.
func WithParallelism(n int) QueryOption {
	return func(o *core.Options) {
		if n <= 0 {
			o.Parallelism = core.AutoParallelism
		} else {
			o.Parallelism = n
		}
	}
}

// WithShards has no effect. It once split the sets into spatial tiles;
// the closest-pair queries now run on the parallel HEAP engine by default
// (see WithParallelism), which returns the same pairs, refs and order.
//
// Deprecated: it is a no-op, kept so existing callers compile. Use
// WithParallelism.
func WithShards(t int) QueryOption {
	return func(*core.Options) {}
}

// buildOptions resolves the engine options of one query: the facade's
// default, DefaultOptions(HeapAlgorithm) with the default parallelism,
// under opts in order.
func buildOptions(opts []QueryOption) core.Options {
	o := core.DefaultOptions(core.Heap)
	o.Parallelism = core.AutoParallelism
	for _, f := range opts {
		f(&o)
	}
	return o
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
// When the context never fires the results and the node- and point-pair
// counters are identical to the context-free call, and so are the disk
// accesses of a sequential query (WithParallelism(1)); a parallel one's
// vary run to run.
func ClosestPairContext(ctx context.Context, p, q *Index, opts ...QueryOption) (Pair, Stats, error) {
	return core.ClosestPairContext(ctx, p.tree, q.tree, buildOptions(opts))
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
	return core.KClosestPairsContext(ctx, p.tree, q.tree, k, buildOptions(opts))
}

// SelfClosestPair returns the closest pair of distinct points within one
// index (the paper's self-CPQ future-work variant). It is the K-CPQ join
// of the index with itself, so every option of KClosestPairs applies:
// algorithm, parallelism, metric and explain. It is the non-cancellable
// shim over SelfClosestPairContext.
func SelfClosestPair(p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return SelfClosestPairContext(context.Background(), p, opts...)
}

// SelfClosestPairContext is SelfClosestPair under a context; see
// ClosestPairContext for the cancellation contract. It honours the same
// options as SelfClosestPair.
func SelfClosestPairContext(ctx context.Context, p *Index, opts ...QueryOption) (Pair, Stats, error) {
	return core.SelfClosestPairContext(ctx, p.tree, buildOptions(opts))
}

// SelfKClosestPairs returns the k closest unordered pairs of distinct
// points within one index in ascending distance order, each with
// RefP < RefQ. It honours the options SelfClosestPair does. It is the
// non-cancellable shim over SelfKClosestPairsContext.
func SelfKClosestPairs(p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return SelfKClosestPairsContext(context.Background(), p, k, opts...)
}

// SelfKClosestPairsContext is SelfKClosestPairs under a context; see
// ClosestPairContext for the cancellation contract. It honours the options
// SelfClosestPair does.
func SelfKClosestPairsContext(ctx context.Context, p *Index, k int, opts ...QueryOption) ([]Pair, Stats, error) {
	return core.SelfKClosestPairsContext(ctx, p.tree, k, buildOptions(opts))
}

// SemiClosestPairs returns, for every point of p, its nearest point in q
// (the paper's semi-CPQ future-work variant), sorted by ascending
// distance. The traversal is batched: one best-first search over q per
// leaf of p serves all of the leaf's points at once, at a fraction of the
// disk accesses of one nearest-neighbour search per point. It runs on the
// closest-pair engine's pair heap, expansion kernel and reused query
// memory, so a query allocates little beyond its result. Where two
// points of q are exactly equally near a point of p, which of them RefQ
// names is not specified. It is not observed: WithExplain has no effect
// on it. It is the non-cancellable shim over SemiClosestPairsContext.
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
type JoinIterator = incremental.Iterator

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
// indexes. It takes no explain capture. It is the non-cancellable shim
// over NewIncrementalJoinContext.
func NewIncrementalJoin(p, q *Index, opts ...JoinOption) (*JoinIterator, error) {
	return NewIncrementalJoinContext(context.Background(), p, q, opts...)
}

// NewIncrementalJoinContext is NewIncrementalJoin under a context: the
// iterator's Next looks at ctx on the join's first queue pop and then
// once per 1,024 pops, and from the first time it finds ctx done it
// returns ctx.Err(), on that call and every later one.
func NewIncrementalJoinContext(ctx context.Context, p, q *Index, opts ...JoinOption) (*JoinIterator, error) {
	var o incremental.Options
	for _, f := range opts {
		f(&o)
	}
	return incremental.NewContext(ctx, p.tree, q.tree, o)
}
