// Package geom provides the planar geometry primitives and the MBR distance
// metrics used by the closest-pair algorithms: points, axis-aligned
// rectangles (MBRs), and, as methods of a Minkowski Metric, the
// MINMINDIST / MINMAXDIST / MAXMAXDIST metrics between two MBRs defined in
// Section 2.3 of Corral et al. (SIGMOD 2000) and the point-to-MBR MINDIST
// of Roussopoulos et al. (SIGMOD 1995). Because each edge of a minimum
// bounding rectangle carries at least one data point, for MBRs M_P and M_Q
// (Inequalities 1 and 2 of the paper):
//
//	MINMINDIST <= dist(p, q) <= MAXMAXDIST   for every p in M_P, q in M_Q
//	dist(p, q) <= MINMAXDIST                 for some p in M_P, q in M_Q
//
// Comparisons run on a monotone key of the distance (the squared distance
// under the default Euclidean metric) to avoid roots on hot paths;
// Metric.KeyToDist turns a key into the distance.
package geom

import (
	"fmt"
	"math"
)

// Point is a point in the plane. The paper focuses on 2-dimensional data;
// the extension to k dimensions is mechanical (§2.1).
type Point struct {
	X, Y float64
}

// DistSq returns the squared Euclidean distance between p and q.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Sqrt(p.DistSq(q))
}

// Add returns the translation of p by (dx, dy).
func (p Point) Add(dx, dy float64) Point {
	return Point{p.X + dx, p.Y + dy}
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	return p.X == q.X && p.Y == q.Y
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%g, %g)", p.X, p.Y)
}

// Rect returns the degenerate rectangle covering exactly p.
func (p Point) Rect() Rect {
	return Rect{Min: p, Max: p}
}
