package geom

import (
	"math"
	"math/rand"
	"testing"
)

func metricsUnderTest(t *testing.T) []Metric {
	t.Helper()
	l3, err := Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	l15, err := Lp(1.5)
	if err != nil {
		t.Fatal(err)
	}
	return []Metric{L2(), L1(), LInf(), l3, l15}
}

func TestLpConstructors(t *testing.T) {
	if _, err := Lp(0.5); err == nil {
		t.Error("p < 1 must be rejected")
	}
	if _, err := Lp(math.NaN()); err == nil {
		t.Error("NaN p must be rejected")
	}
	m, err := Lp(2)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsEuclidean() {
		t.Error("Lp(2) must normalize to the Euclidean metric")
	}
	if !(Metric{}).IsEuclidean() {
		t.Error("zero Metric must be Euclidean")
	}
	names := map[string]bool{}
	for _, m := range metricsUnderTest(t) {
		if n := m.String(); n == "" || names[n] {
			t.Errorf("bad or duplicate metric name %q", n)
		} else {
			names[n] = true
		}
	}
}

func TestMetricPointDistances(t *testing.T) {
	a, b := Point{X: 1, Y: 2}, Point{X: 4, Y: 6} // dx=3, dy=4
	cases := []struct {
		m    Metric
		want float64
	}{
		{L2(), 5},
		{L1(), 7},
		{LInf(), 4},
	}
	for _, c := range cases {
		if got := c.m.Dist(a, b); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%v.Dist = %g, want %g", c.m, got, c.want)
		}
	}
	l3, _ := Lp(3)
	want := math.Pow(27+64, 1.0/3)
	if got := l3.Dist(a, b); math.Abs(got-want) > 1e-12 {
		t.Errorf("L3.Dist = %g, want %g", got, want)
	}
}

func TestMetricKeyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 500; i++ {
			d := rng.Float64() * 100
			if got := m.KeyToDist(m.DistToKey(d)); math.Abs(got-d) > 1e-9*math.Max(1, d) {
				t.Fatalf("%v: key round trip %g -> %g", m, d, got)
			}
		}
	}
}

func TestMetricKeyIsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 500; i++ {
			a := Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			b := Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			c := Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			d := Point{X: rng.NormFloat64(), Y: rng.NormFloat64()}
			kLess := m.Key(a, b) < m.Key(c, d)
			dLess := m.Dist(a, b) < m.Dist(c, d)
			if kLess != dLess {
				t.Fatalf("%v: key order disagrees with distance order", m)
			}
		}
	}
}

func TestMetricTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 500; i++ {
			a := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			b := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			c := Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			if m.Dist(a, c) > m.Dist(a, b)+m.Dist(b, c)+1e-9 {
				t.Fatalf("%v: triangle inequality violated", m)
			}
		}
	}
}

func TestMinMinDistBasic(t *testing.T) {
	m := L2()
	a := Rect{Point{0, 0}, Point{1, 1}}
	cases := []struct {
		b    Rect
		want float64 // the distance, not its key
	}{
		{Rect{Point{2, 0}, Point{3, 1}}, 1},     // right of a
		{Rect{Point{0, 3}, Point{1, 4}}, 2},     // above a
		{Rect{Point{4, 5}, Point{6, 7}}, 5},     // diagonal: dx=3, dy=4
		{Rect{Point{0.5, 0.5}, Point{2, 2}}, 0}, // overlapping
		{Rect{Point{1, 0}, Point{2, 1}}, 0},     // touching
		{Rect{Point{-3, -4}, Point{-3, -4}}, 5}, // point rect, diagonal
		{Rect{Point{0.2, 0.2}, Point{0.8, 0.8}}, 0} /* contained */}
	for _, c := range cases {
		if got := m.KeyToDist(m.MinMinKey(a, c.b)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MINMINDIST(%v, %v) = %g, want %g", a, c.b, got, c.want)
		}
		if got, want := m.MinMinKey(a, c.b), c.want*c.want; math.Abs(got-want) > 1e-12 {
			t.Errorf("L2.MinMinKey(%v, %v) = %g, want %g", a, c.b, got, want)
		}
	}
}

func TestMaxMaxDistBasic(t *testing.T) {
	m := L2()
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 0}, Point{3, 1}}
	// Farthest corners: (0,0)-(3,1) or (0,1)-(3,0): sqrt(9+1).
	if got := m.KeyToDist(m.MaxMaxKey(a, b)); math.Abs(got-math.Sqrt(10)) > 1e-12 {
		t.Errorf("MAXMAXDIST = %g, want sqrt(10)", got)
	}
	// Identical unit squares: diagonal.
	if got := m.KeyToDist(m.MaxMaxKey(a, a)); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("MAXMAXDIST(a, a) = %g, want sqrt(2)", got)
	}
}

func TestMinMaxDistBasic(t *testing.T) {
	m := L2()
	a := Rect{Point{0, 0}, Point{1, 1}}
	b := Rect{Point{2, 0}, Point{3, 1}}
	// Best edge pair: right edge of a (x=1) and left edge of b (x=2).
	// MAXDIST of those edges = max corner-to-corner = sqrt(1 + 1).
	if got := m.KeyToDist(m.MinMaxKey(a, b)); math.Abs(got-math.Sqrt2) > 1e-12 {
		t.Errorf("MINMAXDIST = %g, want sqrt(2)", got)
	}
}

func TestMetricsOnDegenerateRects(t *testing.T) {
	// For two point-rects all three metrics collapse to the point distance.
	p, q := Point{1, 2}, Point{4, 6}
	a, b := p.Rect(), q.Rect()
	for _, m := range metricsUnderTest(t) {
		want := m.Key(p, q)
		for name, got := range map[string]float64{
			"MinMinKey": m.MinMinKey(a, b),
			"MinMaxKey": m.MinMaxKey(a, b),
			"MaxMaxKey": m.MaxMaxKey(a, b),
		} {
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("%v.%s = %g, want %g", m, name, got, want)
			}
		}
	}
}

func TestMetricOrderingProperty(t *testing.T) {
	// MINMINDIST <= MINMAXDIST <= MAXMAXDIST for random rect pairs.
	m := L2()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		a, b := randRect(rng, 10), randRect(rng, 10)
		mn, mm, mx := m.MinMinKey(a, b), m.MinMaxKey(a, b), m.MaxMaxKey(a, b)
		if mn > mm+1e-9 || mm > mx+1e-9 {
			t.Fatalf("metric ordering violated: a=%v b=%v mn=%g mm=%g mx=%g",
				a, b, mn, mm, mx)
		}
	}
}

func TestInequalityOneProperty(t *testing.T) {
	// Inequality 1: MINMINDIST <= dist(p,q) <= MAXMAXDIST for all p in a,
	// q in b.
	m := L2()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a, b := randRect(rng, 5), randRect(rng, 5)
		mn, mx := m.MinMinKey(a, b), m.MaxMaxKey(a, b)
		for j := 0; j < 20; j++ {
			p, q := randPointIn(rng, a), randPointIn(rng, b)
			d := m.Key(p, q)
			if d < mn-1e-9 || d > mx+1e-9 {
				t.Fatalf("inequality 1 violated: a=%v b=%v p=%v q=%v d=%g mn=%g mx=%g",
					a, b, p, q, d, mn, mx)
			}
		}
	}
}

func TestInequalityTwoProperty(t *testing.T) {
	// Inequality 2: when every edge of both MBRs carries a data point, some
	// pair has distance <= MINMAXDIST. Build MBRs of random point sets that
	// overlap in part (so the edge property holds) and verify the minimum
	// pairwise distance does not exceed MINMAXDIST.
	m := L2()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		ps := make([]Point, 5+rng.Intn(10))
		qs := make([]Point, 5+rng.Intn(10))
		for j := range ps {
			ps[j] = Point{rng.Float64() * 10, rng.Float64() * 10}
		}
		for j := range qs {
			qs[j] = Point{rng.Float64()*10 + 5, rng.Float64() * 10}
		}
		a, b := mbrOf(ps...), mbrOf(qs...)
		mm := m.MinMaxKey(a, b)
		best := math.Inf(1)
		for _, p := range ps {
			for _, q := range qs {
				best = min(best, m.Key(p, q))
			}
		}
		if best > mm+1e-9 {
			t.Fatalf("inequality 2 violated: best=%g minmax=%g a=%v b=%v",
				best, mm, a, b)
		}
	}
}

func TestMetricsSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 1000; i++ {
			a, b := randRect(rng, 10), randRect(rng, 10)
			if m.MinMinKey(a, b) != m.MinMinKey(b, a) {
				t.Fatalf("%v.MinMinKey must be symmetric", m)
			}
			if m.MaxMaxKey(a, b) != m.MaxMaxKey(b, a) {
				t.Fatalf("%v.MaxMaxKey must be symmetric", m)
			}
			if math.Abs(m.MinMaxKey(a, b)-m.MinMaxKey(b, a)) > 1e-9 {
				t.Fatalf("%v.MinMaxKey must be symmetric", m)
			}
		}
	}
}

func TestPointRectMinDist(t *testing.T) {
	m := L2()
	r := Rect{Point{0, 0}, Point{2, 2}}
	cases := []struct {
		p    Point
		want float64
	}{
		{Point{1, 1}, 0},  // inside
		{Point{0, 0}, 0},  // corner
		{Point{3, 1}, 1},  // right
		{Point{1, -2}, 2}, // below
		{Point{5, 6}, 5},  // diagonal dx=3 dy=4
	}
	for _, c := range cases {
		if got := m.KeyToDist(m.PointRectMinKey(c.p, r)); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("MINDIST(%v) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPointRectMinDistMatchesRectMetric(t *testing.T) {
	// MINDIST(p, r) == MINMINDIST(rect(p), r).
	rng := rand.New(rand.NewSource(17))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 2000; i++ {
			r := randRect(rng, 10)
			p := Point{rng.Float64()*40 - 20, rng.Float64()*40 - 20}
			if a, b := m.PointRectMinKey(p, r), m.MinMinKey(p.Rect(), r); math.Abs(a-b) > 1e-9 {
				t.Fatalf("%v: mismatch p=%v r=%v a=%g b=%g", m, p, r, a, b)
			}
		}
	}
}

func TestPointRectMaxDist(t *testing.T) {
	// The largest distance from a point to a rectangle, MAXMAXDIST with
	// the point as a degenerate rectangle, is to a corner.
	m := L2()
	r := Rect{Point{0, 0}, Point{2, 2}}
	// From (3,3) the farthest corner is (0,0): dist sqrt(18).
	if got := m.MaxMaxKey(Point{3, 3}.Rect(), r); math.Abs(got-18) > 1e-12 {
		t.Errorf("MaxMaxKey from outside = %g, want 18", got)
	}
	// Inside point: farthest corner.
	if got := m.MaxMaxKey(Point{0.5, 0.5}.Rect(), r); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("MaxMaxKey from inside = %g, want 4.5", got)
	}
}

func TestMinMaxDistBruteForceEdges(t *testing.T) {
	// Cross-check MinMaxKey against sampling: for every edge pair, the
	// sampled max over points on the edges must be <= the endpoint max
	// (squared distance is convex in each endpoint); the min over edge
	// pairs of sampled maxima approximates MINMAXDIST from below.
	m := L2()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		a, b := randRect(rng, 5), randRect(rng, 5)
		approx := math.Inf(1)
		for _, e := range rectEdges(a) {
			for _, f := range rectEdges(b) {
				sampledMax := 0.0
				for s := 0; s <= 8; s++ {
					for u := 0; u <= 8; u++ {
						sp := Point{
							e[0].X + float64(s)/8*(e[1].X-e[0].X),
							e[0].Y + float64(s)/8*(e[1].Y-e[0].Y),
						}
						up := Point{
							f[0].X + float64(u)/8*(f[1].X-f[0].X),
							f[0].Y + float64(u)/8*(f[1].Y-f[0].Y),
						}
						sampledMax = max(sampledMax, m.Key(sp, up))
					}
				}
				if endpoints := edgeMaxKey(m, e, f); sampledMax > endpoints+1e-9 {
					t.Fatalf("edge max underestimates: sampled=%g endpoints=%g",
						sampledMax, endpoints)
				}
				approx = min(approx, sampledMax)
			}
		}
		if got := m.MinMaxKey(a, b); got > approx+1e-9 {
			t.Fatalf("MinMaxKey=%g exceeds sampled bound %g", got, approx)
		}
	}
}

func TestLpInequalityOneProperty(t *testing.T) {
	// MINMINDIST <= dist(p,q) <= MAXMAXDIST under every metric.
	rng := rand.New(rand.NewSource(5))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 200; i++ {
			a, b := randRect(rng, 5), randRect(rng, 5)
			mn, mx := m.MinMinKey(a, b), m.MaxMaxKey(a, b)
			for j := 0; j < 10; j++ {
				p, q := randPointIn(rng, a), randPointIn(rng, b)
				k := m.Key(p, q)
				if k < mn-1e-9 || k > mx+1e-9 {
					t.Fatalf("%v: inequality 1 violated: key=%g mn=%g mx=%g",
						m, k, mn, mx)
				}
			}
		}
	}
}

func TestLpInequalityTwoProperty(t *testing.T) {
	// Inequality 2 under every metric: MBRs of point sets always contain a
	// pair at distance <= MINMAXDIST.
	rng := rand.New(rand.NewSource(6))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 100; i++ {
			ps := make([]Point, 4+rng.Intn(8))
			qs := make([]Point, 4+rng.Intn(8))
			for j := range ps {
				ps[j] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			for j := range qs {
				qs[j] = Point{X: rng.Float64() * 10, Y: rng.Float64() * 10}
			}
			a, b := mbrOf(ps...), mbrOf(qs...)
			mm := m.MinMaxKey(a, b)
			best := math.Inf(1)
			for _, p := range ps {
				for _, q := range qs {
					if k := m.Key(p, q); k < best {
						best = k
					}
				}
			}
			if best > mm+1e-9 {
				t.Fatalf("%v: inequality 2 violated: best=%g minmax=%g", m, best, mm)
			}
		}
	}
}

func TestLpMetricOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range metricsUnderTest(t) {
		for i := 0; i < 500; i++ {
			a, b := randRect(rng, 10), randRect(rng, 10)
			mn, mm, mx := m.MinMinKey(a, b), m.MinMaxKey(a, b), m.MaxMaxKey(a, b)
			if mn > mm+1e-9 || mm > mx+1e-9 {
				t.Fatalf("%v: metric ordering violated: %g %g %g", m, mn, mm, mx)
			}
		}
	}
}

// TestMetricMinMaxMatchMath holds MaxMaxKey and combine's L∞ branch,
// which use the builtin max, to the math.Max forms they replaced,
// bit for bit, on the inputs a tree can hand them: coordinates drawn from
// ±0, small integers and magnitudes whose differences overflow to +Inf,
// rectangles that may be EmptyRect, and NaN coordinates only among values
// whose differences stay finite. The two forms part only where a NaN meets
// an infinity (math.Max(NaN, +Inf) is +Inf, the builtin max gives NaN):
// a NaN delta beside an overflowing one, which needs a NaN coordinate, and
// Valid rejects those.
func TestMetricMinMaxMatchMath(t *testing.T) {
	huge := []float64{math.Copysign(0, -1), 0, -math.MaxFloat64, math.MaxFloat64, -1e307, 1e307, -1, 1, 2}
	small := []float64{math.NaN(), math.Copysign(0, -1), 0, -1, 1, 2}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	mathDeltas := func(a, b Rect) (dx, dy float64) {
		return math.Max(math.Abs(b.Max.X-a.Min.X), math.Abs(a.Max.X-b.Min.X)),
			math.Max(math.Abs(b.Max.Y-a.Min.Y), math.Abs(a.Max.Y-b.Min.Y))
	}
	metrics := metricsUnderTest(t)
	rng := rand.New(rand.NewSource(36))
	for i := 0; i < 20000; i++ {
		vals := huge
		if i%2 == 1 {
			vals = small
		}
		pick := func() float64 { return vals[rng.Intn(len(vals))] }
		rect := func() Rect {
			if i%2 == 0 && rng.Intn(8) == 0 {
				return EmptyRect()
			}
			return Rect{Min: Point{pick(), pick()}, Max: Point{pick(), pick()}}
		}
		a, b := rect(), rect()
		dx, dy := mathDeltas(a, b)
		for _, m := range metrics {
			var want float64
			switch {
			case m.IsEuclidean():
				want = dx*dx + dy*dy
			case math.IsInf(m.p, 1):
				want = math.Max(dx, dy)
			default:
				want = m.combine(dx, dy)
			}
			if got := m.MaxMaxKey(a, b); !same(got, want) {
				t.Fatalf("%v.MaxMaxKey(%v, %v) = %g, math form %g", m, a, b, got, want)
			}
		}
	}
	// combine's L∞ branch on every delta its callers pass: an absolute or
	// zero-clamped difference of finite coordinates, so ±0, finite or +Inf.
	deltas := []float64{math.Copysign(0, -1), 0, 1, 2, 1e307, math.MaxFloat64, math.Inf(1)}
	for _, dx := range deltas {
		for _, dy := range deltas {
			if got, want := LInf().Combine(dx, dy), math.Max(dx, dy); !same(got, want) {
				t.Fatalf("LInf.Combine(%g, %g) = %g, math form %g", dx, dy, got, want)
			}
		}
	}
}

// rectEdges returns the four edges of r as endpoint pairs: bottom, right,
// top, left.
func rectEdges(r Rect) [4][2]Point {
	c := [4]Point{{r.Min.X, r.Min.Y}, {r.Max.X, r.Min.Y}, {r.Max.X, r.Max.Y}, {r.Min.X, r.Max.Y}}
	return [4][2]Point{{c[0], c[1]}, {c[1], c[2]}, {c[2], c[3]}, {c[3], c[0]}}
}

// edgeMaxKey is the MAXDIST key of two edges: the largest key over their
// four endpoint pairs.
func edgeMaxKey(m Metric, e, f [2]Point) float64 {
	return max(m.Key(e[0], f[0]), m.Key(e[0], f[1]), m.Key(e[1], f[0]), m.Key(e[1], f[1]))
}

// minMaxKeyEdges is MINMAXDIST by its definition, the reference for
// MinMaxKey: the least, over the 16 pairs of an edge of a and an edge of
// b, of the pair's MAXDIST.
func minMaxKeyEdges(m Metric, a, b Rect) float64 {
	best := math.Inf(1)
	for _, e := range rectEdges(a) {
		for _, f := range rectEdges(b) {
			best = min(best, edgeMaxKey(m, e, f))
		}
	}
	return best
}

// TestMinMaxKeyMatchesEdgeReference holds the closed-form MinMaxKey to
// the 16-edge definition bit for bit, under every metric, on rectangles
// a tree can hold (finite coordinates, Min ≤ Max): random ones at several
// scales, degenerate ones (points and segments), ones sharing coordinates
// drawn from a small set (so deltas tie and vanish, ±0 among them), and
// ones reaching ±1e307 and ±MaxFloat64, whose deltas overflow to +Inf.
func TestMinMaxKeyMatchesEdgeReference(t *testing.T) {
	metrics := metricsUnderTest(t)
	l725, err := Lp(7.25)
	if err != nil {
		t.Fatal(err)
	}
	metrics = append(metrics, l725)
	pool := []float64{math.Copysign(0, -1), 0, -1, 1, 2, -2, 0.5, 3,
		-1e307, 1e307, -math.MaxFloat64, math.MaxFloat64}
	rng := rand.New(rand.NewSource(37))
	coord := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64()*2 - 1
		case 1:
			return (rng.Float64()*2 - 1) * 1e6
		default:
			return pool[rng.Intn(len(pool))]
		}
	}
	span := func(kind int) (lo, hi float64) {
		u := coord(kind)
		if rng.Intn(4) == 0 {
			return u, u // degenerate on this axis
		}
		v := coord(kind)
		return min(u, v), max(u, v)
	}
	rect := func(kind int) Rect {
		x0, x1 := span(kind)
		y0, y1 := span(kind)
		return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
	}
	n := 40000
	if testing.Short() {
		n = 4000
	}
	for i := 0; i < n; i++ {
		kind := i % 3
		a, b := rect(kind), rect(kind)
		for _, m := range metrics {
			got, want := m.MinMaxKey(a, b), minMaxKeyEdges(m, a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v.MinMaxKey(%v, %v) = %g (%#x), 16-edge reference %g (%#x)",
					m, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
