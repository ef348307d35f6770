// Package core implements the paper's contribution: five algorithms for
// 1-CPQ and K-CPQ over two R*-trees (Naive, Exhaustive, Simple recursive,
// Sorted Distances recursive, and the iterative Heap algorithm), together
// with the tie-break heuristics T1-T5, the fix-at-leaves / fix-at-root
// strategies for trees of different heights, and the K-extension pruning
// rules. The self-CPQ and semi-CPQ variants sketched in the paper's
// future-work section are implemented as well.
package core

import (
	"fmt"
	"runtime"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/sortx"
)

// Algorithm selects one of the paper's five CPQ algorithms (Section 3).
type Algorithm int

const (
	// Naive recurses through every pair of subtrees with no pruning at all
	// (Section 3.1). It exists as a correctness baseline; the paper
	// excludes it from the experiments for obvious cost reasons.
	Naive Algorithm = iota
	// Exhaustive (EXH) prunes subtree pairs whose MINMINDIST exceeds the
	// best distance found so far (Section 3.2, Inequality 1).
	Exhaustive
	// Simple (SIM) additionally tightens the pruning bound with
	// MINMAXDIST before descending (Section 3.3, Inequality 2).
	Simple
	// SortedDistances (STD) additionally processes candidate pairs in
	// ascending MINMINDIST order (Section 3.4).
	SortedDistances
	// Heap (HEAP) is the iterative algorithm: a global min-heap of node
	// pairs keyed by MINMINDIST replaces recursion (Section 3.5).
	Heap
)

// Algorithms lists the five algorithms in the paper's order.
func Algorithms() []Algorithm {
	return []Algorithm{Naive, Exhaustive, Simple, SortedDistances, Heap}
}

// String implements fmt.Stringer, using the paper's abbreviations.
func (a Algorithm) String() string {
	switch a {
	case Naive:
		return "NAIVE"
	case Exhaustive:
		return "EXH"
	case Simple:
		return "SIM"
	case SortedDistances:
		return "STD"
	case Heap:
		return "HEAP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// TieStrategy picks the node pair to process first among pairs with equal
// MINMINDIST in the STD and HEAP algorithms (Section 3.6). T1 is the
// paper's experimental winner and the default.
type TieStrategy int

const (
	// TieNone keeps the order produced by the sort or heap.
	TieNone TieStrategy = iota
	// Tie1 prefers the pair containing the largest MBR, with MBR area
	// expressed as a fraction of the area of the relevant tree's root MBR.
	Tie1
	// Tie2 prefers the pair with the smallest MINMAXDIST between its
	// elements.
	Tie2
	// Tie3 prefers the pair with the largest sum of the two MBR areas.
	Tie3
	// Tie4 prefers the pair with the smallest dead space: the area of the
	// MBR embedding both elements minus the areas of the elements.
	Tie4
	// Tie5 prefers the pair with the largest intersection area between
	// its two elements.
	Tie5
)

// TieStrategies lists T1-T5 (TieNone excluded).
func TieStrategies() []TieStrategy {
	return []TieStrategy{Tie1, Tie2, Tie3, Tie4, Tie5}
}

// String implements fmt.Stringer.
func (t TieStrategy) String() string {
	switch t {
	case TieNone:
		return "none"
	case Tie1:
		return "T1"
	case Tie2:
		return "T2"
	case Tie3:
		return "T3"
	case Tie4:
		return "T4"
	case Tie5:
		return "T5"
	default:
		return fmt.Sprintf("TieStrategy(%d)", int(t))
	}
}

// HeightStrategy governs the treatment of trees with different heights
// (Section 3.7).
type HeightStrategy int

const (
	// FixAtRoot stops descending in the shorter tree until the traversal
	// reaches a pair of nodes at the same level; the paper found it the
	// better choice for SIM and HEAP (Section 4.2) and it is the default.
	FixAtRoot HeightStrategy = iota
	// FixAtLeaves descends both trees simultaneously and fixes the
	// shorter tree once its leaves are reached — the classic spatial-join
	// treatment.
	FixAtLeaves
)

// String implements fmt.Stringer.
func (h HeightStrategy) String() string {
	switch h {
	case FixAtRoot:
		return "fix-at-root"
	case FixAtLeaves:
		return "fix-at-leaves"
	default:
		return fmt.Sprintf("HeightStrategy(%d)", int(h))
	}
}

// KPruning selects how the pruning bound T is tightened for K > 1, where
// Inequality 2 (MINMAXDIST) no longer applies (Section 3.8).
type KPruning int

const (
	// KPruneMaxMax reconstructs the technical-report variant: candidate
	// pairs sorted by ascending MAXMAXDIST update T once the guaranteed
	// number of enclosed point pairs reaches K (right part of
	// Inequality 1). This is the default.
	KPruneMaxMax KPruning = iota
	// KPruneHeapTop relies solely on the distance at the top of the
	// K-heap once it is full (the simple modification in Section 3.8).
	KPruneHeapTop
)

// String implements fmt.Stringer.
func (k KPruning) String() string {
	switch k {
	case KPruneMaxMax:
		return "maxmaxdist"
	case KPruneHeapTop:
		return "heap-top"
	default:
		return fmt.Sprintf("KPruning(%d)", int(k))
	}
}

// Options configures a closest-pair query. The zero Algorithm is Naive,
// so set Algorithm explicitly; DefaultOptions returns the paper's
// preferred configuration (T1 ties, fix-at-root, merge sort) for a given
// algorithm.
type Options struct {
	// Algorithm selects the CPQ algorithm.
	Algorithm Algorithm
	// Tie is the tie-break strategy for STD and HEAP. DefaultOptions sets
	// Tie1, the paper's winner; the zero value keeps sort/heap order.
	Tie TieStrategy
	// Height is the different-heights treatment (default FixAtRoot).
	Height HeightStrategy
	// Sort is the sorting method used by STD (default MergeSort, the
	// authors' choice in footnote 2).
	Sort sortx.Method
	// KPrune selects the K > 1 pruning rule (default KPruneMaxMax).
	KPrune KPruning
	// Metric is the Minkowski distance metric (default Euclidean). The
	// paper's methods adapt to any Minkowski metric (Section 2.1); all
	// MBR bounds (MINMINDIST, MINMAXDIST, MAXMAXDIST) are computed under
	// the same metric, preserving every pruning argument.
	Metric geom.Metric
	// Observe, when non-nil, attaches the query's tracer, metrics,
	// slow-query log and explain capture (see Observer). nil — the default
	// — observes nothing: every trace hook is one nil check and allocates
	// nothing.
	Observe *Observer
	// Parallelism is the number of worker goroutines for the HEAP
	// algorithm. 0 and 1 run the paper's sequential algorithm, whose disk
	// access counts repeat exactly; N > 1 runs N workers, each a
	// sequential HEAP over its fixed share of independent subtree pairs;
	// AutoParallelism (-1), the facade's
	// default, runs runtime.GOMAXPROCS(0) workers where parallelWins says
	// the task engine pays and one elsewhere. The recursive algorithms
	// (Naive, EXH, SIM, STD) ignore the knob: their pruning depends on
	// depth-first T evolution and stays sequential. A parallel run returns
	// identical pairs, refs and order to the sequential one, with work
	// counters that repeat run to run; only its disk-access counts may
	// vary (DESIGN.md §6).
	Parallelism int
}

// AutoParallelism selects runtime.GOMAXPROCS(0) workers for the HEAP
// algorithm on the queries parallelWins admits, and the sequential
// algorithm on the rest.
const AutoParallelism = -1

// Workers resolves the Parallelism knob to the number of goroutines a
// query for k pairs over ta and tb runs on. Only the HEAP algorithm has a
// parallel engine, so every other algorithm resolves to 1 whatever the
// knob says; an explicit count is taken as given.
func (o Options) Workers(ta, tb *rtree.Tree, k int) int {
	switch {
	case o.Algorithm != Heap:
		return 1
	case o.Parallelism == AutoParallelism:
		if !parallelWins(ta, tb, k) {
			return 1
		}
		return runtime.GOMAXPROCS(0)
	case o.Parallelism <= 1:
		return 1
	default:
		return o.Parallelism
	}
}

// parallelWins is the rule by which AutoParallelism goes parallel. It sees
// only what a query knows before it starts, and it admits a query when
// both of these hold (DESIGN.md §6, EXPERIMENTS.md note 25):
//   - Both trees are at least four levels high. On three levels the seed's
//     tasks sit one level above the leaves, a few leaf scans each, and the
//     workers' start and heap merges cost about what they save:
//     the task engine won the bichromatic queries at K <= 100 there but
//     tied or lost the self queries.
//   - K is at most a quarter of the smaller set. Each worker keeps a
//     K-heap of its own, which bounds the search only once it holds K
//     pairs; a K near the set size makes every worker find most of the
//     answer by itself.
//
// The rule was read from a curve measured at GOMAXPROCS 2 on uniform
// inputs only. It is applied unchanged at any worker count and on any
// data, but that is assumed, not measured: more workers seed more tasks,
// a level deeper, and fill more K-heaps before their bounds prune, so
// both boundaries may move with W.
func parallelWins(ta, tb *rtree.Tree, k int) bool {
	return min(ta.Height(), tb.Height()) >= 4 && int64(k) <= min(ta.Len(), tb.Len())/4
}

// DefaultOptions returns the paper's preferred configuration for the given
// algorithm. It is the paper-exact preset — results_full.txt is generated
// from it, each figure that studies Tie, Height, Sort or KPrune overriding
// that one field — and it runs the sequential algorithm. The facade starts
// from it with Parallelism set to AutoParallelism: there is no second
// preset.
func DefaultOptions(a Algorithm) Options {
	return Options{Algorithm: a, Tie: Tie1, Height: FixAtRoot, Sort: sortx.Merge}
}

func (o Options) validate() error {
	switch o.Algorithm {
	case Naive, Exhaustive, Simple, SortedDistances, Heap:
	default:
		return fmt.Errorf("core: unknown algorithm %d", int(o.Algorithm))
	}
	switch o.Tie {
	case TieNone, Tie1, Tie2, Tie3, Tie4, Tie5:
	default:
		return fmt.Errorf("core: unknown tie strategy %d", int(o.Tie))
	}
	switch o.Height {
	case FixAtRoot, FixAtLeaves:
	default:
		return fmt.Errorf("core: unknown height strategy %d", int(o.Height))
	}
	switch o.KPrune {
	case KPruneMaxMax, KPruneHeapTop:
	default:
		return fmt.Errorf("core: unknown K pruning rule %d", int(o.KPrune))
	}
	if o.Parallelism < AutoParallelism {
		return fmt.Errorf("core: invalid parallelism %d", o.Parallelism)
	}
	return nil
}
