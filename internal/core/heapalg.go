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

// heapBatchSlack and heapBatchCap shape the batched dequeue
// (Options.BatchExpand): one heap operation claims every pair whose key is
// within a 1/16 relative band of the current minimum, at most heapBatchCap
// of them. The band keeps the processing order near best-first; the cap
// bounds how far a stale batch can run ahead of a tightening T.
const (
	heapBatchSlack = 1 + 1.0/16
	heapBatchCap   = 16
)

// runHeap drives the iterative Heap algorithm from the given root pair:
// pop the pair with the smallest MINMINDIST, stop as soon as it exceeds T
// (everything still queued is at least as far), otherwise process it and
// enqueue its surviving sub-pairs. With Options.BatchExpand the pop
// dequeues a batch of near-minimal pairs per heap operation; every batch
// member is still re-checked against T before processing, so the result
// set is unchanged (only the processing order, and with it the disk access
// count, may deviate slightly from strict best-first).
//
// Cancellation: the stride-gated poll runs once per dequeued pair, so a
// cancelled context unwinds within cancelStride pairs regardless of
// batching.
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
		if j.opts.BatchExpand {
			limit := h.pairs[0].minminSq * heapBatchSlack
			if t := j.T(); limit > t {
				limit = t
			}
			j.sc.batch = h.popBatch(j.sc.batch[:0], heapBatchCap, limit)
			j.stats.heapBatches.Add(1)
			j.stats.heapBatchPairs.Add(int64(len(j.sc.batch)))
			j.traceHeapBatch(len(j.sc.batch))
		} else {
			j.sc.batch = append(j.sc.batch[:0], h.pop())
		}
		for _, p := range j.sc.batch {
			// The poll sits in the per-pair loop (not only the outer heap
			// loop) so cancellation latency is bounded in pairs processed,
			// not in batches; the stride gate keeps it off the hot path.
			if err := j.cancel.poll(ctx); err != nil {
				return err
			}
			if p.minminSq > j.T() {
				// T tightened while the batch was in flight; later batch
				// members may still qualify, so skip rather than break.
				continue
			}
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
	}
	return nil
}
