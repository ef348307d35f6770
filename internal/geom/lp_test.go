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

func TestMetricL2MatchesLegacyFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := L2()
	for i := 0; i < 1000; i++ {
		a, b := randRect(rng, 10), randRect(rng, 10)
		if m.MinMinKey(a, b) != MinMinDistSq(a, b) {
			t.Fatal("MinMinKey != MinMinDistSq")
		}
		if m.MaxMaxKey(a, b) != MaxMaxDistSq(a, b) {
			t.Fatal("MaxMaxKey != MaxMaxDistSq")
		}
		if math.Abs(m.MinMaxKey(a, b)-MinMaxDistSq(a, b)) > 1e-9 {
			t.Fatal("MinMaxKey != MinMaxDistSq")
		}
		p := Point{X: rng.Float64() * 20, Y: rng.Float64() * 20}
		if m.PointRectMinKey(p, a) != PointRectMinDistSq(p, a) {
			t.Fatal("PointRectMinKey != PointRectMinDistSq")
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
			a, b := RectOf(ps...), RectOf(qs...)
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

// TestMetricMinMaxMatchMath holds MaxMaxKey, MaxMaxDistSq and combine's L∞
// branch, which use the builtin max, to the math.Max forms they replaced,
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
		if got, want := MaxMaxDistSq(a, b), dx*dx+dy*dy; !same(got, want) {
			t.Fatalf("MaxMaxDistSq(%v, %v) = %g, math form %g", a, b, got, want)
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

// minMaxKeyEdges is MINMAXDIST by its definition, the reference for
// MinMaxKey: the least, over the 16 pairs of an edge of a and an edge of
// b, of the largest key over the pair's four endpoint pairs.
func minMaxKeyEdges(m Metric, a, b Rect) float64 {
	ea, eb := a.Edges(), b.Edges()
	best := math.Inf(1)
	for _, e := range ea {
		for _, f := range eb {
			mx := m.Key(e[0], f[0])
			for _, d := range []float64{m.Key(e[0], f[1]), m.Key(e[1], f[0]), m.Key(e[1], f[1])} {
				if d > mx {
					mx = d
				}
			}
			if mx < best {
				best = mx
			}
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
