// Package incremental implements the incremental distance-join algorithms
// of Hjaltason & Samet (SIGMOD 1998), the prior work the paper compares
// against (Sections 3.9 and 5.2). An Iterator produces closest pairs in
// ascending distance order from a priority queue of pairs whose sides are
// each a node or an object, under one of three traversal policies (basic,
// even, simultaneous), equal distances going to the deeper pair first.
// Setting MaxK enables the K-bounded queue pruning of the modified
// algorithm in [11].
package incremental

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Traversal selects how node/node pairs are expanded.
type Traversal int

const (
	// Basic (BAS) always expands the node of the first tree.
	Basic Traversal = iota
	// Even (EVN) expands the node at the shallower depth (higher level),
	// keeping the two trees' frontiers aligned.
	Even
	// Simultaneous (SML) expands both nodes at once, enqueueing all child
	// combinations.
	Simultaneous
)

// Traversals lists the three policies.
func Traversals() []Traversal { return []Traversal{Basic, Even, Simultaneous} }

// String implements fmt.Stringer, using the paper's abbreviations.
func (t Traversal) String() string {
	switch t {
	case Basic:
		return "BAS"
	case Even:
		return "EVN"
	case Simultaneous:
		return "SML"
	default:
		return fmt.Sprintf("Traversal(%d)", int(t))
	}
}

// Options configures an incremental distance join.
type Options struct {
	// Traversal is the node-pair expansion policy (default Basic).
	Traversal Traversal
	// MaxK, when positive, bounds the number of pairs the join will ever
	// produce and enables the queue pruning of the modified algorithm:
	// items that cannot beat the current K-th best candidate distance are
	// not enqueued.
	MaxK int
	// Metric is the Minkowski distance metric (default Euclidean).
	Metric geom.Metric
}

// Stats reports the cost of an incremental join so far.
type Stats struct {
	// IOP and IOQ are the buffer-pool deltas of the two trees.
	IOP, IOQ storage.IOStats
	// MaxQueueSize is the high-water mark of the priority queue — the
	// structural cost the paper's Section 3.9 comparison centers on.
	MaxQueueSize int
	// Inserted counts queue insertions; Popped counts removals.
	Inserted, Popped int64
	// Reported counts pairs delivered to the caller.
	Reported int64
}

// Accesses returns total disk accesses on both trees.
func (s Stats) Accesses() int64 { return s.IOP.Reads + s.IOQ.Reads }

// side is one half of a queue item: a node, whose ref is its page id and
// level its height above the leaves, or an object, at level -1 with its
// record id as ref.
type side struct {
	rect  geom.Rect
	ref   int64
	level int
}

// item is one priority-queue element, a pair of sides; seq is its
// insertion number, which makes the queue order total.
type item struct {
	keySq float64
	seq   int64
	a, b  side
}

// depth is the lower level of the two sides: an item holding an object
// is at depth -1.
func (x *item) depth() int { return min(x.a.level, x.b.level) }

// cancelStride is how many pops pass between two looks at the context,
// the stride of internal/core's traversals.
const cancelStride = 1024

// Iterator produces closest pairs in ascending distance order.
type Iterator struct {
	ctx    context.Context
	ta, tb *rtree.Tree
	opts   Options
	queue  pq
	stats  Stats
	startA storage.IOStats
	startB storage.IOStats
	// kbest implements the MaxK pruning: a bounded max-heap over candidate
	// object/object distances; once it holds MaxK entries its top bounds
	// every distance the join still needs to consider.
	kbest []float64
	// na and nb receive the nodes expand opens, ca and cb the children it
	// pairs: both reused, so a node read allocates nothing.
	na, nb rtree.Node
	ca, cb []side
	// err is the first error Next met; every later call returns it, since
	// the item whose expansion failed is gone from the queue.
	err error
}

// New is NewContext under context.Background().
func New(ta, tb *rtree.Tree, opts Options) (*Iterator, error) {
	return NewContext(context.Background(), ta, tb, opts)
}

// NewContext creates an iterator over the closest pairs of the two trees.
// Both trees must be non-empty. Next polls ctx on the join's first pop and
// then every cancelStride pops, and returns ctx.Err() once it is set.
func NewContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) (*Iterator, error) {
	switch opts.Traversal {
	case Basic, Even, Simultaneous:
	default:
		return nil, fmt.Errorf("incremental: unknown traversal %d", int(opts.Traversal))
	}
	if opts.MaxK < 0 {
		return nil, fmt.Errorf("incremental: negative MaxK %d", opts.MaxK)
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, errors.New("incremental: join over an empty data set")
	}
	it := &Iterator{
		ctx: ctx, ta: ta, tb: tb, opts: opts,
		startA: ta.Pool().Stats(),
		startB: tb.Pool().Stats(),
	}
	ra, err := ta.Bounds()
	if err != nil {
		return nil, err
	}
	rb, err := tb.Bounds()
	if err != nil {
		return nil, err
	}
	it.push(side{ra, int64(ta.RootID()), ta.Height() - 1}, side{rb, int64(tb.RootID()), tb.Height() - 1})
	return it, nil
}

// Stats returns a snapshot of the join's cost counters.
func (it *Iterator) Stats() Stats {
	s := it.stats
	s.IOP = it.ta.Pool().Stats().Sub(it.startA)
	if it.tb.Pool() != it.ta.Pool() {
		s.IOQ = it.tb.Pool().Stats().Sub(it.startB)
	}
	return s
}

// Next returns the next closest pair in ascending distance order. ok is
// false when the join is exhausted (all pairs reported, or MaxK reached).
// An error, from a node read or the context, ends the join: every later
// call returns it again.
func (it *Iterator) Next() (pair core.Pair, ok bool, err error) {
	for it.err == nil && it.queue.len() > 0 &&
		(it.opts.MaxK == 0 || it.stats.Reported < int64(it.opts.MaxK)) {
		if it.stats.Popped%cancelStride == 0 {
			if it.err = it.ctx.Err(); it.err != nil {
				break
			}
		}
		it.stats.MaxQueueSize = max(it.stats.MaxQueueSize, it.queue.len())
		cur := it.queue.pop()
		it.stats.Popped++
		if cur.a.level < 0 && cur.b.level < 0 {
			it.stats.Reported++
			return core.Pair{
				P: cur.a.rect.Min, Q: cur.b.rect.Min,
				RefP: cur.a.ref, RefQ: cur.b.ref,
				Dist: it.opts.Metric.KeyToDist(cur.keySq),
			}, true, nil
		}
		it.err = it.expand(cur.a, cur.b)
	}
	return core.Pair{}, false, it.err
}

// threshold returns the current pruning distance (squared): +Inf until the
// join has seen MaxK candidate object pairs, then the MaxK-th smallest
// candidate distance seen so far.
func (it *Iterator) threshold() float64 {
	if it.opts.MaxK == 0 || len(it.kbest) < it.opts.MaxK {
		return math.Inf(1)
	}
	return it.kbest[0]
}

// observeCandidate feeds an object/object distance into the MaxK bound.
func (it *Iterator) observeCandidate(dSq float64) {
	if it.opts.MaxK == 0 {
		return
	}
	if len(it.kbest) < it.opts.MaxK {
		it.kbest = append(it.kbest, dSq)
		i := len(it.kbest) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if it.kbest[parent] >= it.kbest[i] {
				break
			}
			it.kbest[parent], it.kbest[i] = it.kbest[i], it.kbest[parent]
			i = parent
		}
		return
	}
	if dSq >= it.kbest[0] {
		return
	}
	it.kbest[0] = dSq
	i, n := 0, len(it.kbest)
	for {
		largest := i
		if l := 2*i + 1; l < n && it.kbest[l] > it.kbest[largest] {
			largest = l
		}
		if r := 2*i + 2; r < n && it.kbest[r] > it.kbest[largest] {
			largest = r
		}
		if largest == i {
			return
		}
		it.kbest[i], it.kbest[largest] = it.kbest[largest], it.kbest[i]
		i = largest
	}
}

// push enqueues the pair (a, b) unless the MaxK bound proves it useless.
// An item pushed before the bound tightened past its key is never
// popped: the MaxK pairs that tightened it were pushed too, all below
// it, and reporting them ends the join first.
func (it *Iterator) push(a, b side) {
	keySq := it.opts.Metric.MinMinKey(a.rect, b.rect)
	if a.level < 0 && b.level < 0 {
		it.observeCandidate(keySq)
	}
	if keySq > it.threshold() {
		return
	}
	it.stats.Inserted++
	it.queue.push(item{keySq: keySq, seq: it.stats.Inserted, a: a, b: b})
}

// expand opens the node sides of the pair (a, b) the traversal picks and
// enqueues the cross product of the two sides' children, a side left
// closed standing as its own only child. An object pairs with the other
// side's children; of two nodes, BAS opens the first, EVN the one at the
// higher level (the first on equal levels) and SML both.
func (it *Iterator) expand(a, b side) error {
	trav := it.opts.Traversal
	openA := a.level >= 0 && (b.level < 0 || trav != Even || a.level >= b.level)
	openB := b.level >= 0 && (a.level < 0 || trav == Simultaneous || trav == Even && b.level > a.level)
	var err error
	if it.ca, err = children(it.ta, &it.na, a, openA, it.ca[:0]); err != nil {
		return err
	}
	if it.cb, err = children(it.tb, &it.nb, b, openB, it.cb[:0]); err != nil {
		return err
	}
	for _, x := range it.ca {
		for _, y := range it.cb {
			it.push(x, y)
		}
	}
	return nil
}

// children appends s's children to buf: the entries of its node, read
// from t into n, when open is set, and s itself otherwise.
func children(t *rtree.Tree, n *rtree.Node, s side, open bool, buf []side) ([]side, error) {
	if !open {
		return append(buf, s), nil
	}
	if err := t.ReadNodeInto(storage.PageID(s.ref), n); err != nil {
		return buf, err
	}
	for _, e := range n.Entries {
		buf = append(buf, side{e.Rect, e.Ref, n.Level - 1})
	}
	return buf, nil
}

// GetK is GetKContext under context.Background().
func GetK(ta, tb *rtree.Tree, k int, opts Options) ([]core.Pair, Stats, error) {
	return GetKContext(context.Background(), ta, tb, k, opts)
}

// GetKContext runs the incremental join under ctx until k pairs are
// produced (or the join exhausts) and returns them with the final
// statistics. It enables the MaxK queue pruning with bound k unless
// opts.MaxK is already set.
func GetKContext(ctx context.Context, ta, tb *rtree.Tree, k int, opts Options) ([]core.Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("incremental: k must be positive, got %d", k)
	}
	if opts.MaxK == 0 {
		opts.MaxK = k
	}
	it, err := NewContext(ctx, ta, tb, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	out := make([]core.Pair, 0, min(k, 1024))
	for len(out) < k {
		p, ok, err := it.Next()
		if err != nil {
			return nil, Stats{}, err
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, it.Stats(), nil
}
