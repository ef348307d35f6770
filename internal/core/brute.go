package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
)

// BruteForceKCP computes the K closest pairs between two in-memory point
// sets by scanning all |P|*|Q| pairs. It is the correctness oracle for the
// test suite and for the verification tooling; refs are the point indices.
// Its top-K (topK below) shares no code with the engine's kHeap, so a
// wrong order in the engine cannot hide behind the same wrong order in
// the oracle.
func BruteForceKCP(ps, qs []geom.Point, k int) []Pair {
	return BruteForceKCPMetric(ps, qs, k, geom.L2())
}

// BruteForceKCPMetric is BruteForceKCP under an arbitrary Minkowski
// metric.
func BruteForceKCPMetric(ps, qs []geom.Point, k int, m geom.Metric) []Pair {
	if k <= 0 || len(ps) == 0 || len(qs) == 0 {
		return nil
	}
	h := newTopK(k)
	for i, p := range ps {
		for t, q := range qs {
			h.offer(kPair{
				distSq: m.Key(p, q),
				p:      [2]float64{p.X, p.Y},
				q:      [2]float64{q.X, q.Y},
				refP:   int64(i),
				refQ:   int64(t),
			})
		}
	}
	return h.results(m)
}

// BruteForceSelfKCP computes the K closest pairs within one point set,
// considering each unordered pair of distinct indices once.
func BruteForceSelfKCP(ps []geom.Point, k int) []Pair {
	return BruteForceSelfKCPMetric(ps, k, geom.L2())
}

// BruteForceSelfKCPMetric is BruteForceSelfKCP under an arbitrary
// Minkowski metric. Each pair has RefP < RefQ.
func BruteForceSelfKCPMetric(ps []geom.Point, k int, m geom.Metric) []Pair {
	if k <= 0 || len(ps) < 2 {
		return nil
	}
	h := newTopK(k)
	for i, p := range ps {
		for t := i + 1; t < len(ps); t++ {
			q := ps[t]
			h.offer(kPair{
				distSq: m.Key(p, q),
				p:      [2]float64{p.X, p.Y},
				q:      [2]float64{q.X, q.Y},
				refP:   int64(i),
				refQ:   int64(t),
			})
		}
	}
	return h.results(m)
}

// topK is the oracles' top-K in the result order (distSq, refP, refQ),
// spelled out here rather than taken from lessPair. It collects
// candidates and, whenever 2K + 1024 have piled up, sorts them and keeps
// the first K; a candidate whose key exceeds the K-th key kept by the last
// cut can never enter the result and is dropped on arrival.
type topK struct {
	k     int
	pairs []kPair
	cut   float64
}

func newTopK(k int) *topK { return &topK{k: k, cut: math.Inf(1)} }

func (t *topK) offer(p kPair) {
	if p.distSq > t.cut {
		return
	}
	t.pairs = append(t.pairs, p)
	if len(t.pairs) >= 2*t.k+1024 {
		t.truncate()
	}
}

// truncate sorts the candidates and keeps the first K.
func (t *topK) truncate() {
	slices.SortFunc(t.pairs, func(a, b kPair) int {
		if c := cmp.Compare(a.distSq, b.distSq); c != 0 {
			return c
		}
		if c := cmp.Compare(a.refP, b.refP); c != 0 {
			return c
		}
		return cmp.Compare(a.refQ, b.refQ)
	})
	if len(t.pairs) > t.k {
		t.pairs = t.pairs[:t.k]
		t.cut = t.pairs[t.k-1].distSq
	}
}

func (t *topK) results(m geom.Metric) []Pair {
	t.truncate()
	return publicPairs(t.pairs, m)
}

// BruteForceSemiCP computes the semi-CPQ oracle: for every point of ps,
// its nearest point in qs, sorted by ascending distance.
func BruteForceSemiCP(ps, qs []geom.Point) []Pair {
	if len(ps) == 0 || len(qs) == 0 {
		return nil
	}
	out := make([]Pair, 0, len(ps))
	for i, p := range ps {
		best := 0
		bestD := p.DistSq(qs[0])
		for t := 1; t < len(qs); t++ {
			if d := p.DistSq(qs[t]); d < bestD {
				best, bestD = t, d
			}
		}
		out = append(out, Pair{
			P: p, Q: qs[best],
			RefP: int64(i), RefQ: int64(best),
			Dist: p.Dist(qs[best]),
		})
	}
	sort.Slice(out, func(i, t int) bool {
		if out[i].Dist != out[t].Dist {
			return out[i].Dist < out[t].Dist
		}
		return out[i].RefP < out[t].RefP
	})
	return out
}
