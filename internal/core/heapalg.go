package core

import (
	"context"

	"repro/internal/obs"
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

// popBatch pops pairs in ascending order while the top pair's key does not
// exceed limit, up to max pairs, appending them to dst. The caller
// guarantees the initial top qualifies, so a batch is never empty.
func (h *pairHeap) popBatch(dst []nodePair, max int, limit float64) []nodePair {
	for len(dst) < max && len(h.pairs) > 0 && h.pairs[0].minminSq <= limit {
		dst = append(dst, h.pop())
	}
	return dst
}

// runHeap drives the iterative Heap algorithm from the given root pair:
// pop the pair with the smallest MINMINDIST, stop as soon as it exceeds T
// (everything still queued is at least as far), otherwise process it and
// enqueue its surviving sub-pairs.
//
// Cancellation: the stride-gated poll runs once per dequeued pair, so a
// cancelled context unwinds within cancelStride pairs.
func (j *join) runHeap(ctx context.Context, root nodePair) error {
	h := &j.sc.queue
	h.reset()
	if root.minminSq <= j.T() {
		h.push(root)
	}
	f := j.sc.frame(0)
	for h.Len() > 0 {
		if j.stats.observeQueueLen(h.Len()) {
			j.traceHighWater(h.Len())
		}
		if h.pairs[0].minminSq > j.T() {
			// CP5: the heap is ordered, so no queued pair can qualify.
			break
		}
		if err := j.cancel.poll(ctx); err != nil {
			return err
		}
		p := h.pop()
		if err := j.readPair(p, f); err != nil {
			return err
		}
		if f.na.IsLeaf() && f.nb.IsLeaf() {
			j.scanLeaves(&f.na, &f.nb)
			j.traceBound(obs.SourceKHeap)
			continue
		}
		f.subs = j.expandInto(p, &f.na, &f.nb, f.subs[:0]) // also tightens T
		for _, sp := range f.subs {
			h.push(sp)
		}
	}
	return nil
}
