package core

import (
	"sort"

	"repro/internal/geom"
)

// BruteForceKCP computes the K closest pairs between two in-memory point
// sets by scanning all |P|*|Q| pairs. It is the correctness oracle for the
// test suite and for the verification tooling; refs are the point indices.
func BruteForceKCP(ps, qs []geom.Point, k int) []Pair {
	return BruteForceKCPMetric(ps, qs, k, geom.L2())
}

// BruteForceKCPMetric is BruteForceKCP under an arbitrary Minkowski
// metric.
func BruteForceKCPMetric(ps, qs []geom.Point, k int, m geom.Metric) []Pair {
	if k <= 0 || len(ps) == 0 || len(qs) == 0 {
		return nil
	}
	h := newKHeap(k)
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
	h := newKHeap(k)
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
