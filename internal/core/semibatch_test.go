package core

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func TestSemiBatchedMatchesBruteForce(t *testing.T) {
	ps := uniformPoints(8000, 300, 0)
	qs := uniformPoints(8100, 400, 0.4)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	got, stats, err := SemiClosestPairsBatched(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceSemiCP(ps, qs)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	seen := map[int64]bool{}
	for i := range got {
		if seen[got[i].RefP] {
			t.Fatalf("P ref %d appears twice", got[i].RefP)
		}
		seen[got[i].RefP] = true
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %.12g, want %.12g", i, got[i].Dist, want[i].Dist)
		}
	}
	if stats.Accesses() <= 0 {
		t.Error("no accesses recorded")
	}
}

func TestSemiBatchedAgreesWithPerPoint(t *testing.T) {
	ps := uniformPoints(8200, 500, 0)
	qs := uniformPoints(8300, 500, 0.2)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	perPoint, _, err := SemiClosestPairs(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	batched, _, err := SemiClosestPairsBatched(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if len(perPoint) != len(batched) {
		t.Fatalf("sizes differ: %d vs %d", len(perPoint), len(batched))
	}
	for i := range perPoint {
		if math.Abs(perPoint[i].Dist-batched[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: per-point %.12g vs batched %.12g",
				i, perPoint[i].Dist, batched[i].Dist)
		}
	}
}

func TestSemiBatchedReducesAccesses(t *testing.T) {
	// On larger inputs the batched traversal must cost fewer disk accesses
	// than one NN search per point (the point of the algorithm).
	ps := uniformPoints(8400, 3000, 0)
	qs := uniformPoints(8500, 3000, 0.5)
	ta := buildTree(t, ps, 1024)
	tb := buildTree(t, qs, 1024)
	_, pp, err := SemiClosestPairs(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	_, bt, err := SemiClosestPairsBatched(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if bt.Accesses() >= pp.Accesses() {
		t.Errorf("batched %d accesses >= per-point %d", bt.Accesses(), pp.Accesses())
	}
	if bt.Accesses()*2 > pp.Accesses() {
		t.Logf("note: batched %d vs per-point %d (less than 2x saving)",
			bt.Accesses(), pp.Accesses())
	}
}

func TestSemiBatchedUnderMetrics(t *testing.T) {
	ps := uniformPoints(8600, 150, 0)
	qs := uniformPoints(8700, 200, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, m := range []geom.Metric{geom.L1(), geom.LInf()} {
		opts := DefaultOptions(Heap)
		opts.Metric = m
		got, _, err := SemiClosestPairsBatched(ta, tb, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for _, pair := range got {
			best := math.Inf(1)
			for _, q := range qs {
				if d := m.Dist(ps[pair.RefP], q); d < best {
					best = d
				}
			}
			if math.Abs(pair.Dist-best) > 1e-9 {
				t.Fatalf("%v: ref %d dist %.12g, want %.12g", m, pair.RefP, pair.Dist, best)
			}
		}
	}
}

func TestSemiBatchedEmpty(t *testing.T) {
	empty := buildTree(t, nil, 256)
	tr := buildTree(t, uniformPoints(8800, 10, 0), 256)
	if _, _, err := SemiClosestPairsBatched(empty, tr, DefaultOptions(Heap)); err == nil {
		t.Error("empty P must fail")
	}
	if _, _, err := SemiClosestPairsBatched(tr, empty, DefaultOptions(Heap)); err == nil {
		t.Error("empty Q must fail")
	}
}

// benchJoinTrees bulk-loads the inputs of the semi and range join
// benchmarks: 60k x 60k uniform points, in pools that hold every page.
func benchJoinTrees(b *testing.B) (ta, tb *rtree.Tree) {
	return bulkTree(b, dataset.Uniform(3301, 60000)), bulkTree(b, dataset.Uniform(3302, 60000))
}

// BenchmarkSemiClosestPairsBatched runs the semi join over the inputs of
// benchJoinTrees.
func BenchmarkSemiClosestPairsBatched(b *testing.B) {
	ta, tb := benchJoinTrees(b)
	var stats Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if _, stats, err = SemiClosestPairsBatched(ta, tb, DefaultOptions(Heap)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.NodePairsProcessed), "nodepairs/op")
	b.ReportMetric(float64(stats.PointPairsCompared), "pointpairs/op")
}
