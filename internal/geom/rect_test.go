package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randRect produces a valid rectangle inside [-s, s]^2.
func randRect(rng *rand.Rand, s float64) Rect {
	x1, x2 := rng.Float64()*2*s-s, rng.Float64()*2*s-s
	y1, y2 := rng.Float64()*2*s-s, rng.Float64()*2*s-s
	return Rect{
		Min: Point{math.Min(x1, x2), math.Min(y1, y2)},
		Max: Point{math.Max(x1, x2), math.Max(y1, y2)},
	}
}

// randPointIn returns a random point inside r.
func randPointIn(rng *rand.Rand, r Rect) Point {
	return Point{
		X: r.Min.X + rng.Float64()*(r.Max.X-r.Min.X),
		Y: r.Min.Y + rng.Float64()*(r.Max.Y-r.Min.Y),
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect must be empty")
	}
	if e.Area() != 0 || e.Margin() != 0 {
		t.Error("empty rect must have zero area and margin")
	}
	r := Rect{Point{0, 0}, Point{1, 1}}
	if got := e.Union(r); !got.Equal(r) {
		t.Errorf("EmptyRect.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(e); !got.Equal(r) {
		t.Errorf("r.Union(EmptyRect) = %v, want %v", got, r)
	}
}

func TestRectOf(t *testing.T) {
	r := RectOf(Point{1, 5}, Point{-2, 3}, Point{4, 4})
	want := Rect{Point{-2, 3}, Point{4, 5}}
	if !r.Equal(want) {
		t.Errorf("RectOf = %v, want %v", r, want)
	}
	if !RectOf().IsEmpty() {
		t.Error("RectOf() must be empty")
	}
}

func TestRectAreaMargin(t *testing.T) {
	r := Rect{Point{1, 2}, Point{4, 6}}
	if got := r.Area(); got != 12 {
		t.Errorf("Area = %g", got)
	}
	if got := r.Margin(); got != 7 {
		t.Errorf("Margin = %g", got)
	}
	if got := r.Center(); !got.Equal(Point{2.5, 4}) {
		t.Errorf("Center = %v", got)
	}
}

func TestRectUnionContains(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := RectOf(Point{ax, ay}, Point{bx, by})
		b := RectOf(Point{cx, cy}, Point{dx, dy})
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectUnionCommutative(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		a := RectOf(Point{ax, ay}, Point{bx, by})
		b := RectOf(Point{cx, cy}, Point{dx, dy})
		return a.Union(b).Equal(b.Union(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectIntersect(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	b := Rect{Point{1, 1}, Point{3, 3}}
	got := a.Intersect(b)
	want := Rect{Point{1, 1}, Point{2, 2}}
	if !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("a and b must intersect")
	}
	c := Rect{Point{5, 5}, Point{6, 6}}
	if a.Intersects(c) {
		t.Error("a and c must not intersect")
	}
	if !a.Intersect(c).IsEmpty() {
		t.Error("disjoint intersect must be empty")
	}
	// Touching edges intersect but have zero overlap area.
	d := Rect{Point{2, 0}, Point{4, 2}}
	if !a.Intersects(d) {
		t.Error("touching rects must intersect")
	}
	if a.OverlapArea(d) != 0 {
		t.Error("touching rects must have zero overlap area")
	}
}

func TestRectOverlapArea(t *testing.T) {
	a := Rect{Point{0, 0}, Point{2, 2}}
	b := Rect{Point{1, 1}, Point{3, 3}}
	if got := a.OverlapArea(b); got != 1 {
		t.Errorf("OverlapArea = %g", got)
	}
	if got := a.OverlapArea(a); got != 4 {
		t.Errorf("self OverlapArea = %g", got)
	}
}

func TestRectEnlargement(t *testing.T) {
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 0}, Point{3, 1}}
	if got := a.Enlargement(b); got != 2 {
		t.Errorf("Enlargement = %g", got)
	}
	if got := a.Enlargement(a); got != 0 {
		t.Errorf("self Enlargement = %g", got)
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	for _, p := range []Point{{0, 0}, {1, 1}, {0.5, 0.5}, {0, 1}} {
		if !r.ContainsPoint(p) {
			t.Errorf("%v must be inside %v", p, r)
		}
	}
	for _, p := range []Point{{-0.1, 0}, {1.1, 1}, {0.5, 2}} {
		if r.ContainsPoint(p) {
			t.Errorf("%v must be outside %v", p, r)
		}
	}
}

func TestRectCornersEdges(t *testing.T) {
	r := Rect{Point{0, 0}, Point{2, 1}}
	corners := r.Corners()
	for _, c := range corners {
		if !r.ContainsPoint(c) {
			t.Errorf("corner %v outside rect", c)
		}
	}
	edges := r.Edges()
	if len(edges) != 4 {
		t.Fatalf("edges = %d", len(edges))
	}
	// Each edge endpoint must be a corner.
	isCorner := func(p Point) bool {
		for _, c := range corners {
			if c.Equal(p) {
				return true
			}
		}
		return false
	}
	for _, e := range edges {
		if !isCorner(e[0]) || !isCorner(e[1]) {
			t.Errorf("edge %v endpoints are not corners", e)
		}
	}
}

func TestRectTranslate(t *testing.T) {
	r := Rect{Point{0, 0}, Point{1, 1}}
	got := r.Translate(2, 3)
	want := Rect{Point{2, 3}, Point{3, 4}}
	if !got.Equal(want) {
		t.Errorf("Translate = %v, want %v", got, want)
	}
}

func TestRectValid(t *testing.T) {
	if !(Rect{Point{0, 0}, Point{1, 1}}).Valid() {
		t.Error("unit rect must be valid")
	}
	if (Rect{Point{1, 0}, Point{0, 1}}).Valid() {
		t.Error("inverted rect must be invalid")
	}
	if EmptyRect().Valid() {
		t.Error("empty rect must be invalid")
	}
	if (Rect{Point{math.NaN(), 0}, Point{1, 1}}).Valid() {
		t.Error("NaN rect must be invalid")
	}
}

// TestRectMinMaxMatchMath holds Union, Intersect and OverlapArea, which
// use the builtin min and max, to the math.Min/math.Max forms they
// replaced, bit for bit, on coordinates drawn from ±0, the largest finite
// magnitudes, small integers, and either NaN or ±Inf. The two differ only
// where a NaN meets an infinity (math.Max(NaN, +Inf) is +Inf, the builtin
// max gives NaN), which no rectangle a tree stores can hold: Valid
// rejects both, and EmptyRect has infinities but no NaN.
func TestRectMinMaxMatchMath(t *testing.T) {
	finite := []float64{math.Copysign(0, -1), 0, -math.MaxFloat64, math.MaxFloat64, -1, 1, 2}
	withNaN := append([]float64{math.NaN()}, finite...)
	withInf := append([]float64{math.Inf(-1), math.Inf(1)}, finite...)
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	sameRect := func(a, b Rect) bool {
		return same(a.Min.X, b.Min.X) && same(a.Min.Y, b.Min.Y) && same(a.Max.X, b.Max.X) && same(a.Max.Y, b.Max.Y)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 20000; i++ {
		vals := withNaN
		if i%2 == 1 {
			vals = withInf
		}
		pick := func() float64 { return vals[rng.Intn(len(vals))] }
		r := Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}}
		s := Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}}
		wantUnion := r
		if r.IsEmpty() {
			wantUnion = s
		} else if !s.IsEmpty() {
			wantUnion = Rect{
				Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
				Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
			}
		}
		if got := r.Union(s); !sameRect(got, wantUnion) {
			t.Fatalf("%v.Union(%v) = %v, math form %v", r, s, got, wantUnion)
		}
		wantInter := Rect{
			Min: Point{math.Max(r.Min.X, s.Min.X), math.Max(r.Min.Y, s.Min.Y)},
			Max: Point{math.Min(r.Max.X, s.Max.X), math.Min(r.Max.Y, s.Max.Y)},
		}
		if got := r.Intersect(s); !sameRect(got, wantInter) {
			t.Fatalf("%v.Intersect(%v) = %v, math form %v", r, s, got, wantInter)
		}
		wantOverlap := 0.0
		if dx := math.Min(r.Max.X, s.Max.X) - math.Max(r.Min.X, s.Min.X); !(dx <= 0) {
			if dy := math.Min(r.Max.Y, s.Max.Y) - math.Max(r.Min.Y, s.Min.Y); !(dy <= 0) {
				wantOverlap = dx * dy
			}
		}
		if got := r.OverlapArea(s); !same(got, wantOverlap) {
			t.Fatalf("%v.OverlapArea(%v) = %g, math form %g", r, s, got, wantOverlap)
		}
	}
}
