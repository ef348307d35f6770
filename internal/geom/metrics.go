package geom

import "math"

// This file implements the distance metrics of Section 2.3 of the paper.
//
// For two MBRs M_P and M_Q with edges r_1..r_4 and s_1..s_4:
//
//	MINMINDIST(M_P, M_Q) = min_{i,j} MINDIST(r_i, s_j)   (0 if they intersect)
//	MINMAXDIST(M_P, M_Q) = min_{i,j} MAXDIST(r_i, s_j)
//	MAXMAXDIST(M_P, M_Q) = max_{i,j} MAXDIST(r_i, s_j)
//
// where MINDIST/MAXDIST between two edges are the minimum/maximum distances
// between a point on the first edge and a point on the second. Because each
// edge of a minimum bounding rectangle carries at least one data point, for
// every pair of points p ∈ M_P, q ∈ M_Q (Inequalities 1 and 2 of the paper):
//
//	MINMINDIST <= dist(p, q) <= MAXMAXDIST
//	∃ (p, q): dist(p, q) <= MINMAXDIST

// MinMinDistSq returns the squared MINMINDIST between two MBRs: the smallest
// possible squared distance between a point in a and a point in b. It is 0
// when the rectangles intersect or touch.
func MinMinDistSq(a, b Rect) float64 {
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
	return dx*dx + dy*dy
}

// MinMinDist returns MINMINDIST(a, b).
func MinMinDist(a, b Rect) float64 {
	return math.Sqrt(MinMinDistSq(a, b))
}

// MaxMaxDistSq returns the squared MAXMAXDIST between two MBRs: the largest
// possible squared distance between a point in a and a point in b. The
// maximum of the (coordinate-wise convex) distance function over two
// rectangles is attained at a pair of corners. It takes the builtin max,
// as Metric.MaxMaxKey does and for the same reason.
func MaxMaxDistSq(a, b Rect) float64 {
	dx := max(math.Abs(b.Max.X-a.Min.X), math.Abs(a.Max.X-b.Min.X))
	dy := max(math.Abs(b.Max.Y-a.Min.Y), math.Abs(a.Max.Y-b.Min.Y))
	return dx*dx + dy*dy
}

// MaxMaxDist returns MAXMAXDIST(a, b).
func MaxMaxDist(a, b Rect) float64 {
	return math.Sqrt(MaxMaxDistSq(a, b))
}

// edgeMaxDistSq returns the squared MAXDIST between two segments: the
// largest squared distance between a point on the first and a point on the
// second. Squared Euclidean distance is convex in each endpoint, so the
// maximum over the product of two segments is attained at segment endpoints.
func edgeMaxDistSq(e, f [2]Point) float64 {
	m := e[0].DistSq(f[0])
	if d := e[0].DistSq(f[1]); d > m {
		m = d
	}
	if d := e[1].DistSq(f[0]); d > m {
		m = d
	}
	if d := e[1].DistSq(f[1]); d > m {
		m = d
	}
	return m
}

// MinMaxDistSq returns the squared MINMAXDIST between two MBRs. There is
// always at least one pair of points (p, q), p enclosed by a and q by b,
// with dist(p, q)^2 <= MinMaxDistSq(a, b), because at least one data point
// lies on each edge of a minimum bounding rectangle (Inequality 2).
//
// Degenerate rectangles (points or line segments) are handled naturally:
// their "edges" collapse but remain valid segments.
func MinMaxDistSq(a, b Rect) float64 {
	ea, eb := a.Edges(), b.Edges()
	min := math.Inf(1)
	for i := range ea {
		for j := range eb {
			if d := edgeMaxDistSq(ea[i], eb[j]); d < min {
				min = d
			}
		}
	}
	return min
}

// MinMaxDist returns MINMAXDIST(a, b).
func MinMaxDist(a, b Rect) float64 {
	return math.Sqrt(MinMaxDistSq(a, b))
}

// PointRectMinDistSq returns the squared MINDIST between a point and an MBR
// (Roussopoulos et al., SIGMOD 1995): the squared distance from p to the
// closest point of r. It is 0 when p lies inside r.
func PointRectMinDistSq(p Point, r Rect) float64 {
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
	return dx*dx + dy*dy
}

// PointRectMinDist returns MINDIST(p, r).
func PointRectMinDist(p Point, r Rect) float64 {
	return math.Sqrt(PointRectMinDistSq(p, r))
}

// PointRectMinMaxDistSq returns the squared MINMAXDIST between a point and
// an MBR (Roussopoulos et al.): the smallest upper bound on the distance
// from p to at least one object enclosed by r.
func PointRectMinMaxDistSq(p Point, r Rect) float64 {
	// Along each axis k, take the face of r closer to p on axis k combined
	// with the farther coordinate on the other axis.
	rmX := r.Min.X
	if p.X > (r.Min.X+r.Max.X)/2 {
		rmX = r.Max.X
	}
	rmY := r.Min.Y
	if p.Y > (r.Min.Y+r.Max.Y)/2 {
		rmY = r.Max.Y
	}
	rMX := r.Max.X
	if p.X > (r.Min.X+r.Max.X)/2 {
		rMX = r.Min.X
	}
	rMY := r.Max.Y
	if p.Y > (r.Min.Y+r.Max.Y)/2 {
		rMY = r.Min.Y
	}
	dx1 := p.X - rmX
	dy1 := p.Y - rMY
	v1 := dx1*dx1 + dy1*dy1
	dx2 := p.X - rMX
	dy2 := p.Y - rmY
	v2 := dx2*dx2 + dy2*dy2
	return math.Min(v1, v2)
}

// PointRectMinMaxDist returns MINMAXDIST(p, r).
func PointRectMinMaxDist(p Point, r Rect) float64 {
	return math.Sqrt(PointRectMinMaxDistSq(p, r))
}

// PointRectMaxDistSq returns the squared maximum distance from p to any
// point of r (attained at a corner of r).
func PointRectMaxDistSq(p Point, r Rect) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}
