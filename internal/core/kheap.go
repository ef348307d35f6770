package core

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// kHeap is the result structure of Section 3.8: a bounded max-heap of the
// K closest point pairs found so far, ordered by the lessPair total order
// (squared distance, exact ties by refs) with the largest on top. While
// the heap is not yet full its threshold is +Inf; afterwards it is the
// top pair's distance, and a new pair displaces the top when smaller
// under the total order.
type kHeap struct {
	k     int
	pairs []kPair // binary max-heap on distSq
}

type kPair struct {
	distSq     float64
	p, q       [2]float64
	refP, refQ int64
}

func newKHeap(k int) *kHeap {
	return &kHeap{k: k, pairs: make([]kPair, 0, min(k, 1024))}
}

// init readies a heap for a query of the given K, keeping the backing
// array — the form the scratch-owned heaps are started in.
func (h *kHeap) init(k int) {
	h.k = k
	h.pairs = h.pairs[:0]
}

// threshold returns the current pruning distance T contributed by the
// result set: +Inf until K pairs are known, then the K-th smallest
// distance found so far (squared).
func (h *kHeap) threshold() float64 {
	if len(h.pairs) < h.k {
		return math.Inf(1)
	}
	return h.pairs[0].distSq
}

// reset empties the heap, keeping the backing array (a parallel worker
// empties its own after each merge).
func (h *kHeap) reset() { h.pairs = h.pairs[:0] }

// lessPair is the heap's total order: ascending squared distance, exact
// ties broken by refs. Ordering members totally (not just by distance)
// makes the retained set a pure function of the candidate multiset —
// scan order, worker interleaving and shard boundaries cannot change
// which of several equidistant pairs survives at the K-th position, so
// parallel and scatter-gather runs reproduce the sequential result
// bit-for-bit even at boundary ties.
func lessPair(a, b *kPair) bool {
	if a.distSq != b.distSq {
		return a.distSq < b.distSq
	}
	if a.refP != b.refP {
		return a.refP < b.refP
	}
	return a.refQ < b.refQ
}

// wouldAccept reports whether a pair at the given distance (squared)
// could enter the heap. Leaf scans call it before materialising a kPair,
// so rejected candidates — the overwhelming majority once the heap is
// full — cost one float comparison and no copying. Distances equal to
// the threshold pass: offer then settles the tie by refs.
func (h *kHeap) wouldAccept(distSq float64) bool {
	return len(h.pairs) < h.k || distSq <= h.pairs[0].distSq
}

// offer inserts a candidate pair if it qualifies under the total order,
// returning true when the result set changed.
func (h *kHeap) offer(p kPair) bool {
	if len(h.pairs) < h.k {
		h.pairs = append(h.pairs, p)
		h.siftUp(len(h.pairs) - 1)
		return true
	}
	if !lessPair(&p, &h.pairs[0]) {
		return false
	}
	h.pairs[0] = p
	h.siftDown(0)
	return true
}

// sort orders the collected pairs ascending in place and returns them. It
// ends the heap's life as a heap: an ascending array is not a max-heap, so
// no offer may follow without an init or reset.
func (h *kHeap) sort() []kPair {
	slices.SortFunc(h.pairs, func(a, b kPair) int {
		switch {
		case lessPair(&a, &b):
			return -1
		case lessPair(&b, &a):
			return 1
		}
		return 0
	})
	return h.pairs
}

// results is how pairs leave the heap: sorted in place (see sort), then
// converted once into a fresh public slice in ascending distance order —
// the paper reports K-CP results ordered by distance. The returned slice
// shares nothing with the heap's backing array, which may belong to a
// scratch the next query reuses.
func (h *kHeap) results(m geom.Metric) []Pair {
	return publicPairs(h.sort(), m)
}

// publicPairs converts kPairs into a fresh slice of public Pairs, in order.
func publicPairs(ks []kPair, m geom.Metric) []Pair {
	out := make([]Pair, len(ks))
	for i := range ks {
		out[i] = ks[i].public(m)
	}
	return out
}

// public converts one kPair into its public Pair.
func (kp *kPair) public(m geom.Metric) Pair {
	return Pair{
		P:    geom.Point{X: kp.p[0], Y: kp.p[1]},
		Q:    geom.Point{X: kp.q[0], Y: kp.q[1]},
		RefP: kp.refP,
		RefQ: kp.refQ,
		Dist: m.KeyToDist(kp.distSq),
	}
}

func (h *kHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !lessPair(&h.pairs[parent], &h.pairs[i]) {
			return
		}
		h.pairs[parent], h.pairs[i] = h.pairs[i], h.pairs[parent]
		i = parent
	}
}

func (h *kHeap) siftDown(i int) {
	n := len(h.pairs)
	for {
		largest := i
		if l := 2*i + 1; l < n && lessPair(&h.pairs[largest], &h.pairs[l]) {
			largest = l
		}
		if r := 2*i + 2; r < n && lessPair(&h.pairs[largest], &h.pairs[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.pairs[i], h.pairs[largest] = h.pairs[largest], h.pairs[i]
		i = largest
	}
}
