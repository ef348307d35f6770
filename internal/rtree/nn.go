package rtree

import (
	"container/heap"
	"fmt"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Neighbor is one result of a nearest-neighbor query.
type Neighbor struct {
	Item
	// Dist is the Euclidean distance from the query point to the item's
	// rectangle (to the point itself for point data).
	Dist float64
}

// nnItem is a priority-queue element of the best-first NN search: either a
// node (to be expanded) or a data item (a candidate result).
type nnItem struct {
	distSq float64
	isData bool
	node   storage.PageID // when !isData
	item   Item           // when isData
}

type nnQueue []nnItem

func (q nnQueue) Len() int            { return len(q) }
func (q nnQueue) Less(i, j int) bool  { return q[i].distSq < q[j].distSq }
func (q nnQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nnQueue) Push(x interface{}) { *q = append(*q, x.(nnItem)) }
func (q *nnQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NearestNeighbors returns the k data items closest to q in ascending
// Euclidean distance order, using the best-first (priority queue)
// traversal of Hjaltason & Samet with the MINDIST lower bound of
// Roussopoulos et al. Fewer than k items are returned when the tree holds
// fewer records.
func (t *Tree) NearestNeighbors(q geom.Point, k int) ([]Neighbor, error) {
	return t.NearestNeighborsMetric(q, k, geom.L2())
}

// NearestNeighborsMetric is NearestNeighbors under an arbitrary Minkowski
// metric: the MINDIST lower bound is computed under the same metric, which
// preserves the best-first pruning argument. A query point with a NaN or
// infinite coordinate is an error, as it is for Insert.
func (t *Tree) NearestNeighborsMetric(q geom.Point, k int, m geom.Metric) ([]Neighbor, error) {
	if k <= 0 {
		return nil, fmt.Errorf("rtree: k must be positive, got %d", k)
	}
	if !q.Rect().Valid() {
		return nil, fmt.Errorf("rtree: invalid query point %v", q)
	}
	if t.root == storage.InvalidPageID {
		return nil, nil
	}
	pq := &nnQueue{{distSq: 0, node: t.root}}
	var out []Neighbor
	for pq.Len() > 0 && len(out) < k {
		it := heap.Pop(pq).(nnItem)
		if it.isData {
			out = append(out, Neighbor{Item: it.item, Dist: m.KeyToDist(it.distSq)})
			continue
		}
		n, err := t.ReadNode(it.node)
		if err != nil {
			return nil, err
		}
		for i := range n.Entries {
			e := n.Entries[i]
			d := m.PointRectMinKey(q, e.Rect)
			if n.IsLeaf() {
				heap.Push(pq, nnItem{distSq: d, isData: true, item: Item{Rect: e.Rect, Ref: e.Ref}})
			} else {
				heap.Push(pq, nnItem{distSq: d, node: e.Child()})
			}
		}
	}
	return out, nil
}

// NearestNeighbor returns the single closest item to q, or ErrNotFound for
// an empty tree.
func (t *Tree) NearestNeighbor(q geom.Point) (Neighbor, error) {
	nn, err := t.NearestNeighbors(q, 1)
	if err != nil {
		return Neighbor{}, err
	}
	if len(nn) == 0 {
		return Neighbor{}, ErrNotFound
	}
	return nn[0], nil
}
