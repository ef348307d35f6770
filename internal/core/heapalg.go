package core

import (
	"context"
	"math"

	"repro/internal/rtree"
)

// pairHeap is the main structure of the Heap algorithm (Section 3.5): a
// binary min-heap of node pairs ordered by ascending MINMINDIST, with the
// tie strategy's key as a secondary criterion. Unlike the priority queue
// of Hjaltason & Samet it only ever holds node/node pairs, which keeps it
// small enough to reside entirely in main memory.
type pairHeap struct {
	pairs []nodePair
}

func (h *pairHeap) Len() int { return len(h.pairs) }

// reset empties the heap, keeping the backing array: the queue lives in
// the query scratch, and its array — grown to one query's high-water mark
// — is what the next query starts with.
func (h *pairHeap) reset() { h.pairs = h.pairs[:0] }

func (h *pairHeap) push(p nodePair) {
	h.pairs = append(h.pairs, p)
	h.siftUp(len(h.pairs) - 1)
}

func (h *pairHeap) pop() nodePair {
	top := h.pairs[0]
	last := len(h.pairs) - 1
	h.pairs[0] = h.pairs[last]
	h.pairs = h.pairs[:last]
	h.siftDown(0)
	return top
}

func (h *pairHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.pairs[i].less(&h.pairs[parent]) {
			return
		}
		h.pairs[i], h.pairs[parent] = h.pairs[parent], h.pairs[i]
		i = parent
	}
}

func (h *pairHeap) siftDown(i int) {
	n := len(h.pairs)
	for {
		smallest := i
		if l := 2*i + 1; l < n && h.pairs[l].less(&h.pairs[smallest]) {
			smallest = l
		}
		if r := 2*i + 2; r < n && h.pairs[r].less(&h.pairs[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.pairs[i], h.pairs[smallest] = h.pairs[smallest], h.pairs[i]
		i = smallest
	}
}

// runHeap drives the iterative Heap algorithm from the given root pair:
// pop the pair with the smallest MINMINDIST, stop as soon as it exceeds T
// (everything still queued is at least as far), otherwise process it and
// enqueue its surviving sub-pairs. It is the whole sequential query, and a
// parallel worker runs it on each of its tasks (parallel.go), where once
// the worker's K-heap is full an expansion's leaf pairs are scanned at
// once rather than enqueued (scanLeafBatch).
//
// Cancellation: the stride-gated poll runs once per dequeued or
// batch-scanned pair, so a cancelled context unwinds within cancelStride
// pairs.
func (j *join) runHeap(ctx context.Context, root nodePair) error {
	h := &j.sc.queue
	h.reset()
	if root.minminSq <= j.T() {
		h.push(root)
	}
	f := j.sc.frame(0)
	for h.Len() > 0 {
		if n := h.Len(); n > j.stats.maxQueueSize {
			j.stats.maxQueueSize = n
		}
		if h.pairs[0].minminSq > j.T() {
			// CP5: the heap is ordered, so no queued pair can qualify.
			break
		}
		if err := j.cancel.poll(ctx); err != nil {
			return err
		}
		p := h.pop()
		na, nb, err := j.readPair(p, f)
		if err != nil {
			return err
		}
		if na.IsLeaf() && nb.IsLeaf() {
			j.scanLeaves(na, nb)
			j.recordBound(srcKHeap)
			continue
		}
		f.subs = j.expandInto(p, na, nb, f.subs[:0]) // also tightens T
		// An expansion's sub-pairs are all at the same two levels.
		if j.leafBatch && len(f.subs) > 0 && f.subs[0].la == 0 && f.subs[0].lb == 0 &&
			!math.IsInf(j.kheap.threshold(), 1) {
			if err := j.scanLeafBatch(ctx, p, na, nb, f.subs); err != nil {
				return err
			}
			continue
		}
		for _, sp := range f.subs {
			h.push(sp)
		}
	}
	return nil
}

// scanLeafBatch is a task-engine worker's leaf batch, the read schedule of
// the Brinkhoff–Kriegel–Seeger spatial join: the leaf pairs subs that the
// expansion of p (na, nb) left are scanned at once, in (key, tie) order
// against the live T, instead of queued. The first pair whose key is above
// T ends the batch, since T only falls and every later key is at least as
// large. Each child leaf is read once into the worker's leaf frame and
// serves every pair of the batch that names it. A side whose node in p is
// already a leaf (a different-height pair's fixed side) is that node, read
// once by the expansion. A scanned pair counts as a popped one.
//
// The batch runs only once the worker's K-heap is full (runHeap). Before
// that, T is the seed's loose bound, and a batch would scan whole
// expansions that the queue's order would later prune.
func (j *join) scanLeafBatch(ctx context.Context, p nodePair, na, nb *rtree.Node, subs []nodePair) error {
	// Insertion sort: a batch holds a few dozen pairs at most, and its
	// stable order keeps a key tie's pairs i-major, as finish emits them.
	for i := 1; i < len(subs); i++ {
		for u := i; u > 0 && subs[u].less(&subs[u-1]); u-- {
			subs[u], subs[u-1] = subs[u-1], subs[u]
		}
	}
	lf := &j.sc.leaves
	// A batch reads at most one leaf per entry of na and of nb; a page
	// holds no more than its tree's MaxEntries unless it is corrupt.
	lf.reset(max(j.ta.Config().MaxEntries, j.tb.Config().MaxEntries, len(na.Entries), len(nb.Entries)))
	// A self join's diagonal batch pairs one node's children with each
	// other: one side serves both, so a diagonal leaf pair gets its one
	// node twice, as readPair gives it (scanLeafSelf).
	sideA, sideB := &lf.a, &lf.b
	if j.diagonal(p) {
		sideB = sideA
	}
	for i := range subs {
		sp := subs[i]
		if sp.minminSq > j.T() {
			break
		}
		if err := j.cancel.poll(ctx); err != nil {
			return err
		}
		la, lb := na, nb
		var err error
		if !na.IsLeaf() {
			if la, err = sideA.leaf(j.ta, sp.a); err != nil {
				return err
			}
		}
		if !nb.IsLeaf() {
			if lb, err = sideB.leaf(j.tb, sp.b); err != nil {
				return err
			}
		}
		j.stats.nodePairsProcessed++
		j.scanLeaves(la, lb)
		j.recordBound(srcKHeap)
	}
	return nil
}
