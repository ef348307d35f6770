// Package incremental implements the incremental distance-join algorithms
// of Hjaltason & Samet (SIGMOD 1998), the prior work the paper compares
// against (Sections 3.9 and 5.2). An Iterator produces closest pairs in
// ascending distance order from a priority queue holding four kinds of
// items — node/node, object/node, node/object and object/object — under
// one of three traversal policies (basic, even, simultaneous), equal
// distances going to the deeper pair first. Setting MaxK enables the
// K-bounded queue pruning of the modified algorithm in [11].
package incremental

import (
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

type itemKind uint8

const (
	nodeNode itemKind = iota
	objNode
	nodeObj
	objObj
)

// item is one priority-queue element. Object sides use a degenerate
// rectangle and carry the record id.
type item struct {
	keySq float64
	// depth is the minimum node level in the pair; objects count as -1.
	depth int
	seq   int64 // insertion sequence for deterministic final ordering
	kind  itemKind

	ra, rb     geom.Rect
	aPage      storage.PageID
	bPage      storage.PageID
	la, lb     int
	aRef, bRef int64
}

// Iterator produces closest pairs in ascending distance order.
type Iterator struct {
	ta, tb *rtree.Tree
	opts   Options
	queue  pq
	seq    int64
	stats  Stats
	startA storage.IOStats
	startB storage.IOStats
	// kbest implements the MaxK pruning: a bounded max-heap over candidate
	// object/object distances; once it holds MaxK entries its top bounds
	// every distance the join still needs to consider.
	kbest    []float64
	finished bool
}

// New creates an iterator over the closest pairs of the two trees. Both
// trees must be non-empty.
func New(ta, tb *rtree.Tree, opts Options) (*Iterator, error) {
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
		ta: ta, tb: tb, opts: opts,
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
	it.push(item{
		kind: nodeNode,
		ra:   ra, rb: rb,
		aPage: ta.RootID(), bPage: tb.RootID(),
		la: ta.Height() - 1, lb: tb.Height() - 1,
		keySq: opts.Metric.MinMinKey(ra, rb),
		depth: minInt(ta.Height()-1, tb.Height()-1),
	})
	return it, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Stats returns a snapshot of the join's cost counters.
func (it *Iterator) Stats() Stats {
	s := it.stats
	if it.ta.Pool() == it.tb.Pool() {
		s.IOP = it.ta.Pool().Stats().Sub(it.startA)
	} else {
		s.IOP = it.ta.Pool().Stats().Sub(it.startA)
		s.IOQ = it.tb.Pool().Stats().Sub(it.startB)
	}
	return s
}

// Next returns the next closest pair in ascending distance order. ok is
// false when the join is exhausted (all pairs reported, or MaxK reached).
func (it *Iterator) Next() (pair core.Pair, ok bool, err error) {
	if it.finished {
		return core.Pair{}, false, nil
	}
	if it.opts.MaxK > 0 && it.stats.Reported >= int64(it.opts.MaxK) {
		it.finished = true
		return core.Pair{}, false, nil
	}
	for it.queue.len() > 0 {
		if n := it.queue.len(); n > it.stats.MaxQueueSize {
			it.stats.MaxQueueSize = n
		}
		cur := it.queue.pop()
		it.stats.Popped++
		if cur.kind != objObj && cur.keySq > it.threshold() {
			// Inserted before the MaxK bound tightened past it; the pairs
			// it could produce can no longer be among the first MaxK.
			continue
		}
		if cur.kind == objObj {
			it.stats.Reported++
			p := core.Pair{
				P:    cur.ra.Min,
				Q:    cur.rb.Min,
				RefP: cur.aRef,
				RefQ: cur.bRef,
				Dist: it.opts.Metric.KeyToDist(cur.keySq),
			}
			if it.opts.MaxK > 0 && it.stats.Reported >= int64(it.opts.MaxK) {
				it.finished = true
			}
			return p, true, nil
		}
		if err := it.expand(cur); err != nil {
			return core.Pair{}, false, err
		}
	}
	it.finished = true
	return core.Pair{}, false, nil
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

// push enqueues an item unless the MaxK bound proves it useless.
func (it *Iterator) push(x item) {
	if x.kind == objObj {
		it.observeCandidate(x.keySq)
	}
	if x.keySq > it.threshold() {
		return
	}
	it.seq++
	x.seq = it.seq
	it.queue.push(x)
	it.stats.Inserted++
}

// expand opens one or both nodes of a non-result item and enqueues the
// generated children.
func (it *Iterator) expand(cur item) error {
	switch cur.kind {
	case objNode:
		nb, err := it.tb.ReadNode(cur.bPage)
		if err != nil {
			return err
		}
		it.pairObjectWithChildren(cur.ra.Min, cur.aRef, nb, true)
		return nil
	case nodeObj:
		na, err := it.ta.ReadNode(cur.aPage)
		if err != nil {
			return err
		}
		it.pairObjectWithChildren(cur.rb.Min, cur.bRef, na, false)
		return nil
	}

	// nodeNode: pick sides per traversal policy.
	expandA, expandB := true, true
	switch it.opts.Traversal {
	case Basic:
		expandB = false
	case Even:
		// Expand the node at the shallower depth (higher level); on equal
		// levels expand the first tree.
		if cur.la >= cur.lb {
			expandB = false
		} else {
			expandA = false
		}
	case Simultaneous:
		// both
	}

	switch {
	case expandA && expandB:
		na, err := it.ta.ReadNode(cur.aPage)
		if err != nil {
			return err
		}
		nb, err := it.tb.ReadNode(cur.bPage)
		if err != nil {
			return err
		}
		for i := range na.Entries {
			for j := range nb.Entries {
				it.pushChildPair(&na.Entries[i], na.IsLeaf(), &nb.Entries[j], nb.IsLeaf(),
					na.Level-1, nb.Level-1)
			}
		}
	case expandA:
		na, err := it.ta.ReadNode(cur.aPage)
		if err != nil {
			return err
		}
		for i := range na.Entries {
			ea := &na.Entries[i]
			if na.IsLeaf() {
				it.push(item{
					kind: objNode,
					ra:   ea.Rect, rb: cur.rb,
					aRef: ea.Ref, bPage: cur.bPage, lb: cur.lb,
					keySq: it.opts.Metric.MinMinKey(ea.Rect, cur.rb),
					depth: minInt(-1, cur.lb),
				})
			} else {
				it.push(item{
					kind: nodeNode,
					ra:   ea.Rect, rb: cur.rb,
					aPage: ea.Child(), bPage: cur.bPage,
					la: na.Level - 1, lb: cur.lb,
					keySq: it.opts.Metric.MinMinKey(ea.Rect, cur.rb),
					depth: minInt(na.Level-1, cur.lb),
				})
			}
		}
	default: // expandB
		nb, err := it.tb.ReadNode(cur.bPage)
		if err != nil {
			return err
		}
		for j := range nb.Entries {
			eb := &nb.Entries[j]
			if nb.IsLeaf() {
				it.push(item{
					kind: nodeObj,
					ra:   cur.ra, rb: eb.Rect,
					aPage: cur.aPage, la: cur.la, bRef: eb.Ref,
					keySq: it.opts.Metric.MinMinKey(cur.ra, eb.Rect),
					depth: minInt(cur.la, -1),
				})
			} else {
				it.push(item{
					kind: nodeNode,
					ra:   cur.ra, rb: eb.Rect,
					aPage: cur.aPage, bPage: eb.Child(),
					la: cur.la, lb: nb.Level - 1,
					keySq: it.opts.Metric.MinMinKey(cur.ra, eb.Rect),
					depth: minInt(cur.la, nb.Level-1),
				})
			}
		}
	}
	return nil
}

// pushChildPair enqueues the pair of two child entries (simultaneous
// expansion): object/object for two leaf entries, node/node for two
// internal entries, and the mixed kinds otherwise.
func (it *Iterator) pushChildPair(ea *rtree.Entry, aLeaf bool, eb *rtree.Entry, bLeaf bool, la, lb int) {
	keySq := it.opts.Metric.MinMinKey(ea.Rect, eb.Rect)
	switch {
	case aLeaf && bLeaf:
		it.push(item{
			kind: objObj, ra: ea.Rect, rb: eb.Rect,
			aRef: ea.Ref, bRef: eb.Ref, keySq: keySq, depth: -1,
		})
	case aLeaf:
		it.push(item{
			kind: objNode, ra: ea.Rect, rb: eb.Rect,
			aRef: ea.Ref, bPage: eb.Child(), lb: lb,
			keySq: keySq, depth: -1,
		})
	case bLeaf:
		it.push(item{
			kind: nodeObj, ra: ea.Rect, rb: eb.Rect,
			aPage: ea.Child(), la: la, bRef: eb.Ref,
			keySq: keySq, depth: -1,
		})
	default:
		it.push(item{
			kind: nodeNode, ra: ea.Rect, rb: eb.Rect,
			aPage: ea.Child(), bPage: eb.Child(), la: la, lb: lb,
			keySq: keySq, depth: minInt(la, lb),
		})
	}
}

// pairObjectWithChildren pairs a fixed object with every entry of a node.
// objFirst records whether the object came from the first tree.
func (it *Iterator) pairObjectWithChildren(obj geom.Point, objRef int64, n *rtree.Node, objFirst bool) {
	for i := range n.Entries {
		e := &n.Entries[i]
		keySq := it.opts.Metric.PointRectMinKey(obj, e.Rect)
		switch {
		case n.IsLeaf() && objFirst:
			it.push(item{
				kind: objObj, ra: obj.Rect(), rb: e.Rect,
				aRef: objRef, bRef: e.Ref, keySq: keySq, depth: -1,
			})
		case n.IsLeaf():
			it.push(item{
				kind: objObj, ra: e.Rect, rb: obj.Rect(),
				aRef: e.Ref, bRef: objRef, keySq: keySq, depth: -1,
			})
		case objFirst:
			it.push(item{
				kind: objNode, ra: obj.Rect(), rb: e.Rect,
				aRef: objRef, bPage: e.Child(), lb: n.Level - 1,
				keySq: keySq, depth: -1,
			})
		default:
			it.push(item{
				kind: nodeObj, ra: e.Rect, rb: obj.Rect(),
				aPage: e.Child(), la: n.Level - 1, bRef: objRef,
				keySq: keySq, depth: -1,
			})
		}
	}
}

// GetK runs the incremental join until k pairs are produced (or the join
// exhausts) and returns them with the final statistics. It enables the
// MaxK queue pruning with bound k unless opts.MaxK is already set.
func GetK(ta, tb *rtree.Tree, k int, opts Options) ([]core.Pair, Stats, error) {
	if k <= 0 {
		return nil, Stats{}, fmt.Errorf("incremental: k must be positive, got %d", k)
	}
	if opts.MaxK == 0 {
		opts.MaxK = k
	}
	it, err := New(ta, tb, opts)
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
