package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
)

func bruteWithin(ps, qs []geom.Point, eps float64, m geom.Metric) []float64 {
	var out []float64
	for _, p := range ps {
		for _, q := range qs {
			if d := m.Dist(p, q); d <= eps {
				out = append(out, d)
			}
		}
	}
	sort.Float64s(out)
	return out
}

func TestWithinDistanceMatchesBruteForce(t *testing.T) {
	ps := uniformPoints(5000, 400, 0)
	qs := uniformPoints(5100, 400, 0.7)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, eps := range []float64{0, 0.005, 0.02, 0.1} {
		var got []float64
		stats, err := WithinDistance(ta, tb, eps, DefaultOptions(Heap), func(p Pair) bool {
			got = append(got, p.Dist)
			return true
		})
		if err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		want := bruteWithin(ps, qs, eps, geom.L2())
		if len(got) != len(want) {
			t.Fatalf("eps=%g: got %d pairs, want %d", eps, len(got), len(want))
		}
		sort.Float64s(got)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("eps=%g pair %d: dist %.12g, want %.12g", eps, i, got[i], want[i])
			}
		}
		if eps >= 0.02 && stats.Accesses() <= 0 {
			t.Errorf("eps=%g: no accesses recorded", eps)
		}
	}
}

func TestWithinDistanceUnderL1(t *testing.T) {
	ps := uniformPoints(5200, 300, 0)
	qs := uniformPoints(5300, 300, 0.8)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	opts := DefaultOptions(Heap)
	opts.Metric = geom.L1()
	var got []float64
	if _, err := WithinDistance(ta, tb, 0.05, opts, func(p Pair) bool {
		got = append(got, p.Dist)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := bruteWithin(ps, qs, 0.05, geom.L1())
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
}

func TestWithinDistanceEarlyStop(t *testing.T) {
	ps := uniformPoints(5400, 500, 0)
	qs := uniformPoints(5500, 500, 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	count := 0
	if _, err := WithinDistance(ta, tb, 1.0, DefaultOptions(Heap), func(Pair) bool {
		count++
		return count < 10
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("visited %d pairs, want early stop at 10", count)
	}
}

func TestWithinDistanceEdgeCases(t *testing.T) {
	ps := uniformPoints(5600, 10, 0)
	ta := buildTree(t, ps, 256)
	empty := buildTree(t, nil, 256)
	// Empty side: no pairs, no error.
	stats, err := WithinDistance(ta, empty, 1, DefaultOptions(Heap), func(Pair) bool {
		t.Fatal("unexpected pair")
		return true
	})
	if err != nil || stats.Accesses() != 0 {
		t.Fatalf("empty side: stats=%v err=%v", stats, err)
	}
	// Negative eps rejected.
	if _, err := WithinDistance(ta, ta, -1, DefaultOptions(Heap), func(Pair) bool { return true }); err == nil {
		t.Error("negative eps must fail")
	}
	// NaN eps rejected: no key compares above it, so nothing would be pruned
	// and the whole cross product would stream.
	if _, err := WithinDistance(ta, ta, math.NaN(), DefaultOptions(Heap), func(Pair) bool { return true }); err == nil {
		t.Error("NaN eps must fail")
	}
	// eps = 0 on identical sets: coincident points only.
	tb := buildTree(t, ps, 256)
	n := 0
	if _, err := WithinDistance(ta, tb, 0, DefaultOptions(Heap), func(p Pair) bool {
		if p.Dist != 0 {
			t.Fatalf("eps=0 returned dist %g", p.Dist)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != len(ps) {
		t.Fatalf("eps=0 on identical sets found %d pairs, want %d", n, len(ps))
	}
}

func TestWithinDistancePrunes(t *testing.T) {
	// Distant workspaces with a tiny eps must touch almost nothing.
	ps := uniformPoints(5700, 2000, 0)
	qs := uniformPoints(5800, 2000, 5)
	ta := buildTree(t, ps, 1024)
	tb := buildTree(t, qs, 1024)
	stats, err := WithinDistance(ta, tb, 0.01, DefaultOptions(Heap), func(Pair) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses() > 4 {
		t.Errorf("distant workspaces cost %d accesses, want <= 4 (root pair only)", stats.Accesses())
	}
}

// BenchmarkWithinDistance runs the range join over the 60k x 60k uniform
// inputs of benchJoinTrees at eps = the K = 100 closest-pair distance.
func BenchmarkWithinDistance(b *testing.B) {
	ta, tb := benchJoinTrees(b)
	top, _, err := KClosestPairs(ta, tb, 100, DefaultOptions(Heap))
	if err != nil {
		b.Fatal(err)
	}
	eps := top[len(top)-1].Dist
	var stats Stats
	n := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n = 0
		if stats, err = WithinDistance(ta, tb, eps, DefaultOptions(Heap), func(Pair) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
	}
	if n < len(top) {
		b.Fatalf("streamed %d pairs, want at least %d", n, len(top))
	}
	b.ReportMetric(float64(stats.NodePairsProcessed), "nodepairs/op")
	b.ReportMetric(float64(stats.PointPairsCompared), "pointpairs/op")
	b.ReportMetric(float64(n), "pairs/op")
}
