package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

func testMetrics(t *testing.T) []geom.Metric {
	t.Helper()
	l3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	return []geom.Metric{geom.L2(), geom.L1(), geom.LInf(), l3}
}

// TestAllAlgorithmsUnderAllMetrics: the paper claims the methods adapt to
// any Minkowski metric (Section 2.1); every algorithm must match the
// metric-aware brute force under L1, L2, L3 and L-infinity.
func TestAllAlgorithmsUnderAllMetrics(t *testing.T) {
	ps := uniformPoints(4000, 400, 0)
	qs := uniformPoints(4100, 350, 0.6)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, m := range testMetrics(t) {
		want := BruteForceKCPMetric(ps, qs, 20, m)
		for _, alg := range Algorithms() {
			opts := DefaultOptions(alg)
			opts.Metric = m
			got, _, err := KClosestPairs(ta, tb, 20, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", m, alg, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %v: got %d pairs, want %d", m, alg, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
					t.Fatalf("%v %v pair %d: dist %.12g, want %.12g",
						m, alg, i, got[i].Dist, want[i].Dist)
				}
			}
		}
	}
}

func TestMetricChangesResults(t *testing.T) {
	// A configuration where L1 and L-infinity must disagree with L2:
	// candidate pairs along the axes vs the diagonal.
	ps := []geom.Point{{X: 0, Y: 0}}
	qs := []geom.Point{{X: 3.0, Y: 3.0}, {X: 4.4, Y: 0}}
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	// L2: diagonal point wins (4.24 < 4.4). L1: axis point wins (4.4 < 6).
	l2, _, err := ClosestPair(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if !l2.Q.Equal(geom.Point{X: 3, Y: 3}) {
		t.Fatalf("L2 winner = %v", l2.Q)
	}
	opts := DefaultOptions(Heap)
	opts.Metric = geom.L1()
	l1, _, err := ClosestPair(ta, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !l1.Q.Equal(geom.Point{X: 4.4, Y: 0}) {
		t.Fatalf("L1 winner = %v", l1.Q)
	}
	if math.Abs(l1.Dist-4.4) > 1e-12 {
		t.Fatalf("L1 dist = %g", l1.Dist)
	}
	// L-infinity: diagonal point wins again (3 < 4.4).
	opts.Metric = geom.LInf()
	li, _, err := ClosestPair(ta, tb, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !li.Q.Equal(geom.Point{X: 3, Y: 3}) || math.Abs(li.Dist-3) > 1e-12 {
		t.Fatalf("Linf winner = %v dist %g", li.Q, li.Dist)
	}
}

func TestSelfCPUnderMetrics(t *testing.T) {
	ps := uniformPoints(4200, 300, 0)
	tr := buildTree(t, ps, 256)
	for _, m := range testMetrics(t) {
		opts := DefaultOptions(Heap)
		opts.Metric = m
		got, _, err := SelfKClosestPairs(tr, 10, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if want := BruteForceSelfKCPMetric(ps, 10, m); !slices.Equal(got, want) {
			t.Fatalf("%v: got %v, want %v", m, got, want)
		}
	}
}

func TestSemiCPUnderMetrics(t *testing.T) {
	ps := uniformPoints(4300, 100, 0)
	qs := uniformPoints(4400, 150, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, m := range testMetrics(t) {
		opts := DefaultOptions(Heap)
		opts.Metric = m
		got, _, err := SemiClosestPairs(ta, tb, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(got) != len(ps) {
			t.Fatalf("%v: %d pairs", m, len(got))
		}
		for _, pair := range got {
			// The reported neighbor must be the true nearest under m.
			best := math.Inf(1)
			for _, q := range qs {
				if d := m.Dist(ps[pair.RefP], q); d < best {
					best = d
				}
			}
			if math.Abs(pair.Dist-best) > 1e-9 {
				t.Fatalf("%v: ref %d dist %.12g, want %.12g",
					m, pair.RefP, pair.Dist, best)
			}
		}
	}
}

// TestQueryMinMaxMatchMath holds the query path's builtin min and max to
// the math.Min/math.Max forms they replaced, bit for bit, site by site, on
// the values each site can see (the argument for each is at the site):
//   - T folds thresholds and bounds that are +Inf, ±0 or finite keys,
//     and never NaN;
//   - tieKeyFor's T1 ratios are NaN when an area overflows, and never
//     +Inf, because a node lies inside its root.
func TestQueryMinMaxMatchMath(t *testing.T) {
	keys := []float64{math.Inf(1), math.Copysign(0, -1), 0, 1, 2, 1e307, math.MaxFloat64}
	coords := []float64{-math.MaxFloat64, -1e307, -2, -1, math.Copysign(0, -1), 0, 1, 2, 1e307, math.MaxFloat64}
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	for _, row := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"T", func(t *testing.T) {
			for _, th := range keys {
				for _, b := range keys {
					j := &join{kheap: &kHeap{k: 1, pairs: []kPair{{distSq: th}}}, bound: b}
					if got, want := j.T(), math.Min(th, b); !same(got, want) {
						t.Fatalf("T(threshold %g, bound %g) = %g, math form %g", th, b, got, want)
					}
				}
			}
		}},
		{"tieKeyFor/T1", func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			// nested draws four sorted coordinates per axis: the outer two
			// span the root, the inner two a node inside it.
			nested := func() (root, node geom.Rect) {
				var x, y [4]float64
				for i := range x {
					x[i], y[i] = coords[rng.Intn(len(coords))], coords[rng.Intn(len(coords))]
				}
				slices.Sort(x[:])
				slices.Sort(y[:])
				return geom.Rect{Min: geom.Point{X: x[0], Y: y[0]}, Max: geom.Point{X: x[3], Y: y[3]}},
					geom.Rect{Min: geom.Point{X: x[1], Y: y[1]}, Max: geom.Point{X: x[2], Y: y[2]}}
			}
			for i := 0; i < 20000; i++ {
				rootA, ra := nested()
				rootB, rb := nested()
				areaA, areaB := rootA.Area(), rootB.Area()
				relA, relB := 0.0, 0.0
				if areaA > 0 {
					relA = ra.Area() / areaA
				}
				if areaB > 0 {
					relB = rb.Area() / areaB
				}
				want := -math.Max(relA, relB)
				if got := tieKeyFor(Tie1, geom.L2(), ra, rb, areaA, areaB); !same(got, want) {
					t.Fatalf("T1 key of %v in %v, %v in %v = %g, math form %g", ra, rootA, rb, rootB, got, want)
				}
			}
		}},
	} {
		t.Run(row.name, row.run)
	}
}
