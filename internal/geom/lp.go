package geom

import (
	"fmt"
	"math"
)

// Metric is a Minkowski (L_p) distance on the plane, p >= 1, including the
// L1 (Manhattan), L2 (Euclidean) and L-infinity (Chebyshev) special cases.
// Section 2.1 of the paper notes its methods "can be easily adapted to any
// Minkowski metric"; this type is that adaptation.
//
// The zero value is the Euclidean metric, so existing call sites keep
// their behavior. To avoid roots and powers on hot paths, all comparisons
// run on a monotone *key* of the distance (the squared distance for L2,
// the p-th power for general L_p, the distance itself for L1/L-infinity);
// KeyToDist converts a key back to the actual distance.
type Metric struct {
	// p encodes the order: 0 means L2 (the zero value), math.Inf(1) means
	// L-infinity, anything else is the literal order.
	p float64
}

// L2 returns the Euclidean metric (the paper's default).
func L2() Metric { return Metric{} }

// L1 returns the Manhattan metric.
func L1() Metric { return Metric{p: 1} }

// LInf returns the Chebyshev (maximum) metric.
func LInf() Metric { return Metric{p: math.Inf(1)} }

// Lp returns the Minkowski metric of order p >= 1.
func Lp(p float64) (Metric, error) {
	if math.IsNaN(p) || p < 1 {
		return Metric{}, fmt.Errorf("geom: Minkowski order %g out of [1, +inf]", p)
	}
	if p == 2 {
		return Metric{}, nil
	}
	return Metric{p: p}, nil
}

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch {
	case m.p == 0:
		return "L2"
	case math.IsInf(m.p, 1):
		return "Linf"
	default:
		return fmt.Sprintf("L%g", m.p)
	}
}

// IsEuclidean reports whether m is the L2 metric.
func (m Metric) IsEuclidean() bool { return m.p == 0 }

// combine merges non-negative per-axis deltas into a comparison key. The
// L∞ branch takes the builtin max (see MaxMaxKey for why it agrees with
// math.Max on every delta a caller passes).
func (m Metric) combine(dx, dy float64) float64 {
	switch {
	case m.p == 0:
		return dx*dx + dy*dy
	case m.p == 1:
		return dx + dy
	case math.IsInf(m.p, 1):
		return max(dx, dy)
	default:
		return math.Pow(dx, m.p) + math.Pow(dy, m.p)
	}
}

// Combine merges non-negative per-axis deltas into a comparison key. It
// is the exported form of combine for flat-array distance kernels
// (internal/core's batched MINMINDIST loop) that compute per-axis
// workspace gaps themselves and only need the norm applied; callers must
// pass deltas >= 0 or the general-p branch misbehaves.
func (m Metric) Combine(dx, dy float64) float64 { return m.combine(dx, dy) }

// KeyToDist converts a comparison key back into a distance.
func (m Metric) KeyToDist(k float64) float64 {
	switch {
	case m.p == 0:
		return math.Sqrt(k)
	case m.p == 1 || math.IsInf(m.p, 1):
		return k
	default:
		return math.Pow(k, 1/m.p)
	}
}

// DistToKey converts a distance into its comparison key.
func (m Metric) DistToKey(d float64) float64 {
	switch {
	case m.p == 0:
		return d * d
	case m.p == 1 || math.IsInf(m.p, 1):
		return d
	default:
		return math.Pow(d, m.p)
	}
}

// Key returns the comparison key of the distance between two points.
func (m Metric) Key(a, b Point) float64 {
	return m.combine(math.Abs(a.X-b.X), math.Abs(a.Y-b.Y))
}

// Dist returns the distance between two points.
func (m Metric) Dist(a, b Point) float64 {
	return m.KeyToDist(m.Key(a, b))
}

// MinMinKey returns the key of MINMINDIST under m: per-axis workspace
// separations combined by the norm (0 when the rectangles intersect).
func (m Metric) MinMinKey(a, b Rect) float64 {
	var dx, dy float64
	switch {
	case b.Min.X > a.Max.X:
		dx = b.Min.X - a.Max.X
	case a.Min.X > b.Max.X:
		dx = a.Min.X - b.Max.X
	}
	switch {
	case b.Min.Y > a.Max.Y:
		dy = b.Min.Y - a.Max.Y
	case a.Min.Y > b.Max.Y:
		dy = a.Min.Y - b.Max.Y
	}
	return m.combine(dx, dy)
}

// MaxMaxKey returns the key of MAXMAXDIST under m. Any L_p norm is
// coordinate-wise increasing in the per-axis deltas, whose maxima are
// attained simultaneously at a corner pair.
//
// It takes the builtin max, which compiles inline where math.Max is a
// call; the two part only where a NaN meets an infinity. A delta here is
// the difference of two coordinates a tree stores, which Valid keeps
// finite: it overflows to +Inf at magnitudes near 1e308, but it is never
// NaN, and so is no per-axis delta any caller hands combine.
func (m Metric) MaxMaxKey(a, b Rect) float64 {
	dx := max(math.Abs(b.Max.X-a.Min.X), math.Abs(a.Max.X-b.Min.X))
	dy := max(math.Abs(b.Max.Y-a.Min.Y), math.Abs(a.Max.Y-b.Min.Y))
	return m.combine(dx, dy)
}

// MinMaxKey returns the key of MINMAXDIST under m (Inequality 2 holds for
// any metric: each MBR edge carries at least one data point).
//
// MINMAXDIST is the least, over the 16 pairs of an edge of a and an edge
// of b, of the pair's MAXDIST: the largest key over its four endpoint
// pairs. A key is nondecreasing in each per-axis delta, and an edge is
// fixed on one axis and spans its rectangle on the other, so an edge
// pair's MAXDIST combines its largest x delta with its largest y delta,
// and the least over the four pairs of one orientation combines extreme
// deltas:
//   - two horizontal edges: the largest x delta over the four x pairs,
//     with the least y delta over the four y pairs;
//   - two vertical edges: the same with the axes swapped;
//   - a horizontal edge of a and a vertical edge of b: per axis, the
//     least over the fixed coordinate (b's x, a's y) of the largest delta
//     to the other rectangle's span;
//   - a vertical edge of a and a horizontal edge of b: the same with the
//     rectangles swapped.
//
// Each of the four keys is one the 16-edge evaluation computes, and so is
// their least: the two forms agree bit for bit on every rectangle a tree
// can hold (TestMinMaxKeyMatchesEdgeReference).
func (m Metric) MinMaxKey(a, b Rect) float64 {
	// xij is |Δx| between a's min (i = 0) or max (i = 1) and b's min
	// (j = 0) or max (j = 1); y likewise.
	x00, x01 := math.Abs(a.Min.X-b.Min.X), math.Abs(a.Min.X-b.Max.X)
	x10, x11 := math.Abs(a.Max.X-b.Min.X), math.Abs(a.Max.X-b.Max.X)
	y00, y01 := math.Abs(a.Min.Y-b.Min.Y), math.Abs(a.Min.Y-b.Max.Y)
	y10, y11 := math.Abs(a.Max.Y-b.Min.Y), math.Abs(a.Max.Y-b.Max.Y)
	hh := m.combine(max(x00, x01, x10, x11), min(y00, y01, y10, y11))
	vv := m.combine(min(x00, x01, x10, x11), max(y00, y01, y10, y11))
	hv := m.combine(min(max(x00, x10), max(x01, x11)), min(max(y00, y01), max(y10, y11)))
	vh := m.combine(min(max(x00, x01), max(x10, x11)), min(max(y00, y10), max(y01, y11)))
	return min(hh, vv, hv, vh)
}

// PointRectMinKey returns the key of MINDIST(p, r) under m.
func (m Metric) PointRectMinKey(p Point, r Rect) float64 {
	var dx, dy float64
	switch {
	case p.X < r.Min.X:
		dx = r.Min.X - p.X
	case p.X > r.Max.X:
		dx = p.X - r.Max.X
	}
	switch {
	case p.Y < r.Min.Y:
		dy = r.Min.Y - p.Y
	case p.Y > r.Max.Y:
		dy = p.Y - r.Max.Y
	}
	return m.combine(dx, dy)
}
