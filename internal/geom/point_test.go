package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{-1, -1}, Point{2, 3}, 5},
		{Point{1.5, 2.5}, Point{1.5, 2.5}, 0},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Dist(%v, %v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := c.p.DistSq(c.q); math.Abs(got-c.want*c.want) > 1e-12 {
			t.Errorf("DistSq(%v, %v) = %g, want %g", c.p, c.q, got, c.want*c.want)
		}
	}
}

func TestPointDistSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		p, q := Point{ax, ay}, Point{bx, by}
		return p.DistSq(q) == q.DistSq(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointAdd(t *testing.T) {
	p := Point{1, 2}
	if got := p.Add(3, -1); !got.Equal(Point{4, 1}) {
		t.Errorf("Add = %v", got)
	}
}

func TestPointRect(t *testing.T) {
	p := Point{3, 7}
	r := p.Rect()
	if !r.Min.Equal(p) || !r.Max.Equal(p) {
		t.Errorf("Rect() = %v", r)
	}
	if r.Area() != 0 {
		t.Errorf("point rect area = %g", r.Area())
	}
	if !r.Contains(p.Rect()) {
		t.Error("point rect must contain its point")
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{1, 2.5}).String(); s != "(1, 2.5)" {
		t.Errorf("String = %q", s)
	}
}
