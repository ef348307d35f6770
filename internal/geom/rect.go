package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle (a minimum bounding rectangle, MBR).
// A Rect is valid when Min.X <= Max.X and Min.Y <= Max.Y; a point is
// represented as a degenerate Rect with Min == Max.
type Rect struct {
	Min, Max Point
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to the other operand.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// RectOf returns the MBR of the given points. It returns EmptyRect for an
// empty argument list.
func RectOf(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Union(p.Rect())
	}
	return r
}

// IsEmpty reports whether r contains no points (Min > Max on some axis).
func (r Rect) IsEmpty() bool {
	return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y
}

// Valid reports whether r is a well-formed, non-empty rectangle with
// finite coordinates.
func (r Rect) Valid() bool {
	if r.IsEmpty() {
		return false
	}
	for _, v := range [...]float64{r.Min.X, r.Min.Y, r.Max.X, r.Max.Y} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Area returns the area of r. Degenerate rectangles have area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Margin returns half the perimeter of r (the R*-tree split "margin" value).
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

// Center returns the centroid of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Union returns the smallest rectangle containing both r and s.
// Union, Intersect and OverlapArea use the builtin min and max, which
// compile inline where math.Min and math.Max are calls. Both forms order
// -0 below +0 and return NaN for a NaN operand; they part only where a NaN
// meets an infinity (math.Max(NaN, +Inf) is +Inf), and no Valid rectangle
// holds a NaN or an infinity.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		Min: Point{min(r.Min.X, s.Min.X), min(r.Min.Y, s.Min.Y)},
		Max: Point{max(r.Max.X, s.Max.X), max(r.Max.Y, s.Max.Y)},
	}
}

// Intersect returns the overlap of r and s; the result IsEmpty when the
// rectangles are disjoint.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		Min: Point{max(r.Min.X, s.Min.X), max(r.Min.Y, s.Min.Y)},
		Max: Point{min(r.Max.X, s.Max.X), min(r.Max.Y, s.Max.Y)},
	}
}

// Intersects reports whether r and s share at least one point
// (touching edges count as intersecting).
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// OverlapArea returns the area of the intersection of r and s
// (0 when disjoint or merely touching).
func (r Rect) OverlapArea(s Rect) float64 {
	dx := min(r.Max.X, s.Max.X) - max(r.Min.X, s.Min.X)
	if dx <= 0 {
		return 0
	}
	dy := min(r.Max.Y, s.Max.Y) - max(r.Min.Y, s.Min.Y)
	if dy <= 0 {
		return 0
	}
	return dx * dy
}

// Contains reports whether s lies entirely inside r.
func (r Rect) Contains(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return r.Min.X <= s.Min.X && r.Min.Y <= s.Min.Y &&
		r.Max.X >= s.Max.X && r.Max.Y >= s.Max.Y
}

// ContainsPoint reports whether p lies inside r (boundary included).
func (r Rect) ContainsPoint(p Point) bool {
	return r.Min.X <= p.X && p.X <= r.Max.X && r.Min.Y <= p.Y && p.Y <= r.Max.Y
}

// Enlargement returns the area increase needed for r to also cover s.
func (r Rect) Enlargement(s Rect) float64 {
	return r.Union(s).Area() - r.Area()
}

// Equal reports whether r and s are identical rectangles.
func (r Rect) Equal(s Rect) bool {
	return r.Min.Equal(s.Min) && r.Max.Equal(s.Max)
}

// Corners returns the four vertices of r in the order
// (min,min), (max,min), (max,max), (min,max).
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.Min.X, r.Min.Y},
		{r.Max.X, r.Min.Y},
		{r.Max.X, r.Max.Y},
		{r.Min.X, r.Max.Y},
	}
}

// Edges returns the four edges of r as endpoint pairs:
// bottom, right, top, left.
func (r Rect) Edges() [4][2]Point {
	c := r.Corners()
	return [4][2]Point{
		{c[0], c[1]}, // bottom
		{c[1], c[2]}, // right
		{c[2], c[3]}, // top
		{c[3], c[0]}, // left
	}
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy float64) Rect {
	return Rect{Min: r.Min.Add(dx, dy), Max: r.Max.Add(dx, dy)}
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%g,%g]x[%g,%g]", r.Min.X, r.Max.X, r.Min.Y, r.Max.Y)
}
