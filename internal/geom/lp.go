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

// edgeMaxKey returns the key of the maximum distance between two segments
// under m; every L_p norm is convex, so the maximum over the segment
// product is attained at endpoints.
func (m Metric) edgeMaxKey(e, f [2]Point) float64 {
	mx := m.Key(e[0], f[0])
	if d := m.Key(e[0], f[1]); d > mx {
		mx = d
	}
	if d := m.Key(e[1], f[0]); d > mx {
		mx = d
	}
	if d := m.Key(e[1], f[1]); d > mx {
		mx = d
	}
	return mx
}

// MinMaxKey returns the key of MINMAXDIST under m (Inequality 2 holds for
// any metric: each MBR edge carries at least one data point).
func (m Metric) MinMaxKey(a, b Rect) float64 {
	ea, eb := a.Edges(), b.Edges()
	min := math.Inf(1)
	for i := range ea {
		for j := range eb {
			if d := m.edgeMaxKey(ea[i], eb[j]); d < min {
				min = d
			}
		}
	}
	return min
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
