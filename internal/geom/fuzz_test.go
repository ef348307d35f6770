package geom

import (
	"math"
	"testing"
)

// FuzzMetricOrder asserts the paper's Inequalities 1 and 2 (Section 2.3)
// on arbitrary rectangle pairs: for any two MBRs,
//
//	MINMINDIST <= MINMAXDIST <= MAXMAXDIST
//
// both in the squared forms the pruning hot paths compare and in the
// reported (rooted) forms, plus the side conditions the algorithms lean
// on: all three are non-negative, and MINMINDIST is exactly 0 for
// intersecting rectangles. The engine's correctness rests on this chain —
// TestHotPathSourceRules keeps roots out of comparisons, and this fuzz
// target keeps the squared metrics ordered.
func FuzzMetricOrder(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0)      // disjoint squares
	f.Add(-5.0, 1.0, 0.0, 4.0, -1.0, -2.0, 6.0, 0.5)   // overlapping
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)      // coincident points
	f.Add(1.0, 2.0, 1.0, 9.0, -3.0, 2.0, -3.0, 2.0)    // segment vs point
	f.Add(1e-9, 0.0, 2e-9, 1e17, -1e17, 0.0, 0.0, 1.0) // extreme aspect ratios
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite coordinate")
			}
		}
		a := rectFrom(ax, ay, bx, by)
		b := rectFrom(cx, cy, dx, dy)

		minmin := MinMinDistSq(a, b)
		minmax := MinMaxDistSq(a, b)
		maxmax := MaxMaxDistSq(a, b)
		if minmin < 0 || minmax < 0 || maxmax < 0 {
			t.Fatalf("negative squared metric: minmin=%g minmax=%g maxmax=%g", minmin, minmax, maxmax)
		}
		if minmin > minmax {
			t.Errorf("MINMINDIST^2 %g > MINMAXDIST^2 %g for %v %v", minmin, minmax, a, b)
		}
		if minmax > maxmax {
			t.Errorf("MINMAXDIST^2 %g > MAXMAXDIST^2 %g for %v %v", minmax, maxmax, a, b)
		}
		if a.Intersects(b) && minmin != 0 {
			t.Errorf("intersecting MBRs with MINMINDIST^2 %g for %v %v", minmin, a, b)
		}

		// The reported distances must order the same way (the root is
		// monotone) and agree with the squared forms.
		dMin, dMid, dMax := MinMinDist(a, b), MinMaxDist(a, b), MaxMaxDist(a, b)
		if dMin > dMid || dMid > dMax {
			t.Errorf("rooted metrics out of order: %g %g %g for %v %v", dMin, dMid, dMax, a, b)
		}
		if dMin != math.Sqrt(minmin) || dMid != math.Sqrt(minmax) || dMax != math.Sqrt(maxmax) {
			t.Errorf("rooted metrics disagree with squared forms for %v %v", a, b)
		}
	})
}

// rectFrom builds a valid MBR from two arbitrary corner points.
func rectFrom(x1, y1, x2, y2 float64) Rect {
	return Rect{
		Min: Point{X: math.Min(x1, x2), Y: math.Min(y1, y2)},
		Max: Point{X: math.Max(x1, x2), Y: math.Max(y1, y2)},
	}
}
