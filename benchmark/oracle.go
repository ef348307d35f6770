package main

import (
	"fmt"
	"math"
	"sort"

	cpq "repro"
	"repro/internal/geom"
)

// The oracle checks query results without any R-tree: a result names its
// own K-th distance d, a uniform hash grid with cell side d finds every
// pair within d by probing 3x3 cells, and the K smallest of those in
// (distSq, refP, refQ) order must be the result, pair for pair. A missed
// closer pair, a phantom pair or a wrong order all show as a mismatch.

// minCellSide keeps cell coordinates inside int64 when the reported
// distance is 0 (duplicate points); any side >= the distance is correct.
const minCellSide = 1e-9

// grid buckets point indices by cell of the given side.
type grid struct {
	side  float64
	cells map[[2]int64][]int32
}

func (g grid) cell(p geom.Point) [2]int64 {
	return [2]int64{int64(math.Floor(p.X / g.side)), int64(math.Floor(p.Y / g.side))}
}

func newGrid(pts []geom.Point, side float64) grid {
	g := grid{side: side, cells: make(map[[2]int64][]int32, len(pts))}
	for i, p := range pts {
		c := g.cell(p)
		g.cells[c] = append(g.cells[c], int32(i))
	}
	return g
}

// near calls fn with the index of every bucketed point in the 3x3 cells
// around p.
func (g grid) near(p geom.Point, fn func(i int32)) {
	c := g.cell(p)
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, i := range g.cells[[2]int64{c[0] + dx, c[1] + dy}] {
				fn(i)
			}
		}
	}
}

func distSq(a, b geom.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// sameDist compares a reported distance with the oracle's within the
// rounding of one sqrt.
func sameDist(got, want float64) bool {
	return math.Abs(got-want) <= 1e-12*math.Max(got, want)
}

type candidate struct {
	d2         float64
	refP, refQ int64
}

// refOf maps an index to its record id; nil refs mean id == index.
func refOf(refs []int64, i int32) int64 {
	if refs == nil {
		return int64(i)
	}
	return refs[i]
}

// checkKCP verifies got as the k closest pairs between ps and qs.
func checkKCP(ps []geom.Point, prefs []int64, qs []geom.Point, qrefs []int64, got []cpq.Pair, k int) error {
	want := k
	if total := len(ps) * len(qs); total < want {
		want = total
	}
	if len(got) != want {
		return fmt.Errorf("oracle: %d pairs returned, want %d", len(got), want)
	}
	if want == 0 {
		return nil
	}
	kth := got[len(got)-1].Dist
	if !(kth >= 0) || math.IsInf(kth, 0) {
		return fmt.Errorf("oracle: K-th distance %g", kth)
	}
	side := math.Max(kth, minCellSide)
	// sqrt-then-square may land one ulp below the key the engine compared.
	limit := kth * kth * (1 + 1e-12)
	g := newGrid(qs, side)
	var cands []candidate
	for i, p := range ps {
		g.near(p, func(j int32) {
			if d2 := distSq(p, qs[j]); d2 <= limit {
				cands = append(cands, candidate{d2, refOf(prefs, int32(i)), refOf(qrefs, j)})
			}
		})
		if len(cands) > 64*k+4096 {
			return fmt.Errorf("oracle: more than %d pairs within the reported K-th distance %g", len(cands), kth)
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		x, y := cands[a], cands[b]
		if x.d2 != y.d2 {
			return x.d2 < y.d2
		}
		if x.refP != y.refP {
			return x.refP < y.refP
		}
		return x.refQ < y.refQ
	})
	if len(cands) < want {
		return fmt.Errorf("oracle: only %d pairs within the reported K-th distance %g, result has %d", len(cands), kth, want)
	}
	for i, pr := range got {
		c := cands[i]
		if pr.RefP != c.refP || pr.RefQ != c.refQ || !sameDist(pr.Dist, math.Sqrt(c.d2)) {
			return fmt.Errorf("oracle: pair %d is (#%d, #%d) dist %g, want (#%d, #%d) dist %g",
				i, pr.RefP, pr.RefQ, pr.Dist, c.refP, c.refQ, math.Sqrt(c.d2))
		}
	}
	return nil
}

// checkSelfCP verifies got as the closest pair of distinct records of ps:
// its two refs must be live points at the reported distance, and no pair
// may be closer.
func checkSelfCP(ps []geom.Point, refs []int64, got cpq.Pair) error {
	if got.RefP == got.RefQ {
		return fmt.Errorf("oracle: self pair joins record #%d with itself", got.RefP)
	}
	if !(got.Dist >= 0) || math.IsInf(got.Dist, 0) {
		return fmt.Errorf("oracle: self pair distance %g", got.Dist)
	}
	g := newGrid(ps, math.Max(got.Dist, minCellSide))
	best := math.Inf(1)
	found := false
	for i, p := range ps {
		ri := refOf(refs, int32(i))
		g.near(p, func(j int32) {
			if int(j) <= i {
				return
			}
			d2 := distSq(p, ps[j])
			if d2 < best {
				best = d2
			}
			rj := refOf(refs, j)
			if (ri == got.RefP && rj == got.RefQ) || (ri == got.RefQ && rj == got.RefP) {
				found = sameDist(got.Dist, math.Sqrt(d2))
			}
		})
	}
	if !found {
		return fmt.Errorf("oracle: self pair (#%d, #%d) dist %g is not a pair of live points at that distance", got.RefP, got.RefQ, got.Dist)
	}
	if !sameDist(got.Dist, math.Sqrt(best)) {
		return fmt.Errorf("oracle: self pair dist %g, closest is %g", got.Dist, math.Sqrt(best))
	}
	return nil
}
