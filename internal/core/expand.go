package core

import (
	"math"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// join carries the state of one closest-pair query across the traversal.
type join struct {
	ta, tb *rtree.Tree
	opts   Options
	k      int
	// self marks a self join (ta == tb, SelfKClosestPairsContext): the
	// result is unordered pairs of distinct points, so a diagonal pair — a
	// node against itself — reads its node once, expands to the i <= t
	// triangle of its children and scans its leaf's upper triangle (see
	// diagonal). It is a flag, not ta == tb: KClosestPairs(t, t) is the
	// bichromatic query over two copies of one set, (p, p) pairs included.
	self bool
	// sc is the join's scratch, held from newJoin to release; kheap is
	// the result heap inside it. Every driver works in sc alone; a
	// parallel worker's join holds the scratch that worker took
	// (parallel.go).
	sc    *queryScratch
	kheap *kHeap
	// bound is the auxiliary pruning bound B (squared): the MINMAXDIST
	// bound of Inequality 2 for K = 1, or the MAXMAXDIST prefix bound for
	// K > 1 under KPruneMaxMax. The effective pruning distance T is
	// min(bound, K-heap threshold).
	bound float64
	stats statsAcc

	// span is the query's trace span, nil when tracing is disabled. lastT
	// is the last effective bound T this join traced, so EvBoundTightened
	// is emitted only on strict decreases (see trace.go).
	span  *obs.Span
	lastT float64

	rootAreaA, rootAreaB float64
	useTie               bool
	mA, mB               float64 // minimum node occupancies as floats
	metric               geom.Metric

	// leafBatch marks a task-engine worker's join: once its K-heap is full,
	// runHeap scans the leaf pairs of a level-1 expansion at once
	// (scanLeafBatch) instead of queueing them. The sequential HEAP keeps
	// the paper's pop order.
	leafBatch bool

	// cancel is the stride-gated context poll the drivers call once per
	// traversal step (heap pop, recursive visit, range- or semi-join pop).
	cancel cancelGate
}

// newJoin validates the options and sets up a query over the two trees in
// a scratch taken from the free list; self makes it the self join of
// ta == tb. On success the caller owns the scratch and must release() the
// join on every path out of the query.
func newJoin(ta, tb *rtree.Tree, k int, opts Options, self bool) (*join, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	sc := acquireScratch()
	sc.kheap.init(k)
	j := &join{
		ta:     ta,
		tb:     tb,
		opts:   opts,
		k:      k,
		sc:     sc,
		kheap:  &sc.kheap,
		bound:  math.Inf(1),
		lastT:  math.Inf(1),
		mA:     float64(ta.Config().MinEntries),
		mB:     float64(tb.Config().MinEntries),
		metric: opts.Metric,
		self:   self,
	}
	j.useTie = opts.Tie != TieNone &&
		(opts.Algorithm == SortedDistances || opts.Algorithm == Heap)
	ba, bb, err := j.rootBounds()
	if err != nil {
		j.release()
		return nil, err
	}
	j.rootAreaA, j.rootAreaB = ba.Area(), bb.Area()
	return j, nil
}

// release hands the join's scratch back to the free list. Everything the
// query returns (pairs, stats) must have been copied out before.
func (j *join) release() {
	releaseScratch(j.sc)
	j.sc, j.kheap = nil, nil
}

// rootBounds reads both roots into the scratch and returns their MBRs; a
// self join reads its one root once.
func (j *join) rootBounds() (ba, bb geom.Rect, err error) {
	f := j.sc.frame(0)
	if ba, err = rootMBR(j.ta, &f.na); err != nil || j.self {
		return ba, ba, err
	}
	bb, err = rootMBR(j.tb, &f.nb)
	return ba, bb, err
}

// rootMBR is Tree.Bounds through a caller-owned node: one page access, the
// root's MBR, or the empty rectangle of an empty tree.
func rootMBR(t *rtree.Tree, n *rtree.Node) (geom.Rect, error) {
	if t.RootID() == storage.InvalidPageID {
		return geom.EmptyRect(), nil
	}
	if err := t.ReadNodeInto(t.RootID(), n); err != nil {
		return geom.Rect{}, err
	}
	return n.MBR(), nil
}

// T returns the current pruning distance (squared): candidate node pairs
// with MINMINDIST > T cannot contribute a result pair.
//
// T folds with the builtin min, which compiles inline where math.Min is a
// call. The two part only where a NaN meets an infinity, and no operand
// here is NaN: each is +Inf or a key of coordinates a tree stores, which
// are finite, and a key of finite coordinates is a sum or maximum of
// non-negative terms that may overflow to +Inf but never subtracts one
// infinity from another.
func (j *join) T() float64 {
	return min(j.kheap.threshold(), j.bound)
}

// prunes reports whether the algorithm uses MINMINDIST pruning at all
// (everything except Naive).
func (j *join) prunes() bool { return j.opts.Algorithm != Naive }

// tightens reports whether the algorithm updates T from node metrics
// before descending (SIM, STD, HEAP).
func (j *join) tightens() bool {
	switch j.opts.Algorithm {
	case Simple, SortedDistances, Heap:
		return true
	}
	return false
}

// diagonal reports whether p pairs a node with itself in a self join.
func (j *join) diagonal(p nodePair) bool { return j.self && p.a == p.b }

// rootPair forms the initial node pair from the two roots.
func (j *join) rootPair() (nodePair, error) {
	ra, rb, err := j.rootBounds()
	if err != nil {
		return nodePair{}, err
	}
	return nodePair{
		a: j.ta.RootID(), b: j.tb.RootID(),
		la: int32(j.ta.Height() - 1), lb: int32(j.tb.Height() - 1),
		minminSq: j.metric.MinMinKey(ra, rb),
	}, nil
}

// expansion sides.
type expandMode int

const (
	expandBoth expandMode = iota
	expandAOnly
	expandBOnly
)

// modeFor decides which side(s) of a node pair to open, implementing the
// fix-at-root and fix-at-leaves strategies of Section 3.7.
func (j *join) modeFor(na, nb *rtree.Node) expandMode {
	if na.Level == nb.Level {
		return expandBoth
	}
	switch j.opts.Height {
	case FixAtRoot:
		// Descend only the taller side until the levels match.
		if na.Level > nb.Level {
			return expandAOnly
		}
		return expandBOnly
	default: // FixAtLeaves
		// Descend both sides while both are internal; once one side is a
		// leaf, keep descending the other.
		if na.IsLeaf() {
			return expandBOnly
		}
		if nb.IsLeaf() {
			return expandAOnly
		}
		return expandBoth
	}
}

// expandInto generates the candidate sub-pairs of a node pair, tightens
// the sequential auxiliary bound for the algorithms that do so (SIM, STD,
// HEAP), and appends the sub-pairs surviving the post-tighten pruning
// bound T to dst. MINMINDIST values are computed for every pruning
// algorithm; tie keys only for survivors, when a tie strategy is active
// (kernel.go). It mutates j.bound and works in the join's own scratch,
// so a parallel worker calls it only on its own join.
func (j *join) expandInto(p nodePair, na, nb *rtree.Node, dst []nodePair) []nodePair {
	e := j.beginExpand(&j.sc.kern, p, na, nb, j.bound)
	if j.tightens() && e.bound < j.bound {
		j.bound = e.bound
		j.traceBound(j.boundSource())
	}
	T := math.Inf(1)
	if j.prunes() {
		T = j.T()
	}
	return e.finish(dst, T)
}

// guaranteedPoints returns the minimum number of data points in a non-root
// subtree whose root node sits at the given level: m^(level+1).
func (j *join) guaranteedPoints(m float64, level int) float64 {
	return math.Pow(m, float64(level+1))
}

// nodeGuaranteedPoints bounds the points under a node we have in hand
// (which may be a root with fewer than m entries).
func nodeGuaranteedPoints(m float64, n *rtree.Node) float64 {
	if n.IsLeaf() {
		return float64(len(n.Entries))
	}
	return float64(len(n.Entries)) * math.Pow(m, float64(n.Level))
}

// scanLeaves performs step CP3: evaluate the point pairs between two
// leaves against the join's K-heap, pruned by the auxiliary bound (the
// K-heap's own threshold applies in any case).
func (j *join) scanLeaves(na, nb *rtree.Node) {
	j.scanLeavesSweep(na, nb, j.kheap, j.bound)
}

// readPair fetches both nodes of a pair into the frame, counting the
// accesses the paper measures, and returns them. A diagonal pair reads its
// one node once and returns it as both sides: the kernel and the sweep
// take na == nb for the diagonal. The nodes are valid until the frame's
// next readPair.
func (j *join) readPair(p nodePair, f *frame) (na, nb *rtree.Node, err error) {
	if err := j.ta.ReadNodeInto(p.a, &f.na); err != nil {
		return nil, nil, err
	}
	na, nb = &f.na, &f.nb
	if j.diagonal(p) {
		nb = na
	} else if err := j.tb.ReadNodeInto(p.b, nb); err != nil {
		return nil, nil, err
	}
	j.stats.nodePairsProcessed.Add(1)
	j.traceNodeExpanded(p)
	return na, nb, nil
}
