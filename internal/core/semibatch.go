package core

import (
	"container/heap"
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// SemiClosestPairsBatched answers the same semi-CPQ as SemiClosestPairs —
// for each point of the first tree, its nearest point in the second — but
// with a batched traversal instead of one nearest-neighbor search per
// point: the P-tree's leaves are visited once, and for each leaf a single
// best-first search over the Q-tree serves all of the leaf's points
// simultaneously, pruned by the leaf's worst unresolved best-so-far
// distance. On clustered data this shares most Q-node reads among the
// ~M points of a P leaf, cutting disk accesses substantially (see the
// "semi" benchmark for the comparison).
//
// SemiClosestPairsBatched is the non-cancellable shim over
// SemiClosestPairsBatchedContext.
func SemiClosestPairsBatched(ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	return SemiClosestPairsBatchedContext(context.Background(), ta, tb, opts)
}

// SemiClosestPairsBatchedContext is SemiClosestPairsBatched under a
// context; see KClosestPairsContext for the cancellation contract.
func SemiClosestPairsBatchedContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, Stats{}, ErrEmptyInput
	}
	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()

	s := &semiBatch{tb: tb, metric: opts.Metric}
	out := make([]Pair, 0, ta.Len())
	if err := s.walkLeaves(ctx, ta, ta.RootID(), &out); err != nil {
		return nil, Stats{}, err
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].RefP < out[j].RefP
	})
	// With a shared pool report the delta once.
	s.stats.IOP = ta.Pool().Stats().Sub(startA)
	if ta.Pool() != tb.Pool() {
		s.stats.IOQ = tb.Pool().Stats().Sub(startB)
	}
	return out, s.stats, nil
}

type semiBatch struct {
	tb     *rtree.Tree
	metric geom.Metric
	stats  Stats
	cancel cancelGate
}

// walkLeaves visits every leaf of the P-tree in depth-first order. The
// poll at the top makes each visit a cancellation point, covering both
// the child loop below and resolveLeaf's best-first loop.
func (s *semiBatch) walkLeaves(ctx context.Context, ta *rtree.Tree, id storage.PageID, out *[]Pair) error {
	if err := s.cancel.poll(ctx); err != nil {
		return err
	}
	n, err := ta.ReadNode(id)
	if err != nil {
		return err
	}
	if n.IsLeaf() {
		return s.resolveLeaf(ctx, n, out)
	}
	for i := range n.Entries {
		if err := s.walkLeaves(ctx, ta, n.Entries[i].Child(), out); err != nil {
			return err
		}
	}
	return nil
}

// batchItem is a Q-subtree candidate keyed by MINDIST to the P-leaf MBR —
// a lower bound on its distance to every point of the leaf.
type batchItem struct {
	key  float64
	page storage.PageID
}

type batchQueue []batchItem

func (q batchQueue) Len() int            { return len(q) }
func (q batchQueue) Less(i, j int) bool  { return q[i].key < q[j].key }
func (q batchQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *batchQueue) Push(x interface{}) { *q = append(*q, x.(batchItem)) }
func (q *batchQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// resolveLeaf finds the Q-nearest neighbor of every point in one P leaf
// with a single best-first search over the Q-tree.
func (s *semiBatch) resolveLeaf(ctx context.Context, leaf *rtree.Node, out *[]Pair) error {
	pts := make([]geom.Point, len(leaf.Entries))
	refs := make([]int64, len(leaf.Entries))
	bestKey := make([]float64, len(leaf.Entries))
	bestPt := make([]geom.Point, len(leaf.Entries))
	bestRef := make([]int64, len(leaf.Entries))
	for i := range leaf.Entries {
		pts[i] = leaf.Entries[i].Rect.Min
		refs[i] = leaf.Entries[i].Ref
		bestKey[i] = math.Inf(1)
	}
	leafMBR := leaf.MBR()

	// worst returns the largest unresolved best-so-far key: a Q subtree
	// whose MINDIST to the leaf MBR exceeds it cannot improve any point.
	worst := func() float64 {
		w := 0.0
		for _, k := range bestKey {
			if k > w {
				w = k
			}
		}
		return w
	}

	pq := &batchQueue{{key: 0, page: s.tb.RootID()}}
	for pq.Len() > 0 {
		if err := s.cancel.poll(ctx); err != nil {
			return err
		}
		it := heap.Pop(pq).(batchItem)
		if it.key > worst() {
			break
		}
		n, err := s.tb.ReadNode(it.page)
		if err != nil {
			return err
		}
		s.stats.NodePairsProcessed++
		if n.IsLeaf() {
			for qi := range n.Entries {
				q := n.Entries[qi].Rect.Min
				for pi := range pts {
					s.stats.PointPairsCompared++
					if k := s.metric.Key(pts[pi], q); k < bestKey[pi] {
						bestKey[pi] = k
						bestPt[pi] = q
						bestRef[pi] = n.Entries[qi].Ref
					}
				}
			}
			continue
		}
		w := worst()
		for i := range n.Entries {
			key := s.metric.MinMinKey(leafMBR, n.Entries[i].Rect)
			s.stats.SubPairsGenerated++
			if key > w {
				s.stats.SubPairsPruned++
				continue
			}
			heap.Push(pq, batchItem{key: key, page: n.Entries[i].Child()})
		}
	}

	for i := range pts {
		*out = append(*out, Pair{
			P:    pts[i],
			Q:    bestPt[i],
			RefP: refs[i],
			RefQ: bestRef[i],
			Dist: s.metric.KeyToDist(bestKey[i]),
		})
	}
	return nil
}
