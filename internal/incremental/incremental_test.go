package incremental

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func buildTree(t testing.TB, pts []geom.Point, pageSize int) *rtree.Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemFile(pageSize), 0)
	tr, err := rtree.New(pool, rtree.Config{PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func uniformPoints(seed int64, n int, x0 float64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: x0 + rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func TestAllPoliciesMatchBruteForce(t *testing.T) {
	ps := uniformPoints(1, 300, 0)
	qs := uniformPoints(2, 250, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	want := core.BruteForceKCP(ps, qs, 50)
	for _, tr := range Traversals() {
		got, stats, err := GetK(ta, tb, 50, Options{Traversal: tr})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		if len(got) != 50 {
			t.Fatalf("%v: got %d pairs", tr, len(got))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v pair %d: dist %.12g, want %.12g",
					tr, i, got[i].Dist, want[i].Dist)
			}
		}
		if stats.Accesses() <= 0 || stats.MaxQueueSize <= 0 {
			t.Errorf("%v: stats not recorded: %+v", tr, stats)
		}
	}
}

func TestIncrementalOrderIsAscending(t *testing.T) {
	ps := uniformPoints(3, 200, 0)
	qs := uniformPoints(4, 200, 0.8)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	it, err := New(ta, tb, Options{Traversal: Simultaneous})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for i := 0; i < 500; i++ {
		p, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("exhausted after %d pairs", i)
		}
		if p.Dist < prev-1e-12 {
			t.Fatalf("pair %d: distance %g < previous %g", i, p.Dist, prev)
		}
		prev = p.Dist
	}
}

func TestIncrementalExhaustsAllPairs(t *testing.T) {
	ps := uniformPoints(5, 18, 0)
	qs := uniformPoints(6, 13, 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, tr := range Traversals() {
		it, err := New(ta, tb, Options{Traversal: tr})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[[2]int64]bool{}
		count := 0
		for {
			p, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			key := [2]int64{p.RefP, p.RefQ}
			if seen[key] {
				t.Fatalf("%v: pair %v reported twice", tr, key)
			}
			seen[key] = true
			count++
		}
		if count != 18*13 {
			t.Fatalf("%v: reported %d pairs, want %d", tr, count, 18*13)
		}
		// Further calls stay exhausted.
		if _, ok, _ := it.Next(); ok {
			t.Fatalf("%v: Next after exhaustion returned a pair", tr)
		}
	}
}

func TestMaxKStopsAndPrunes(t *testing.T) {
	ps := uniformPoints(7, 400, 0)
	qs := uniformPoints(8, 400, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	bounded, bStats, err := GetK(ta, tb, 10, Options{Traversal: Simultaneous})
	if err != nil {
		t.Fatal(err)
	}
	unboundedIt, err := New(ta, tb, Options{Traversal: Simultaneous})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, ok, err := unboundedIt.Next()
		if err != nil || !ok {
			t.Fatalf("unbounded next %d: ok=%v err=%v", i, ok, err)
		}
		if math.Abs(p.Dist-bounded[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: bounded %g vs unbounded %g", i, bounded[i].Dist, p.Dist)
		}
	}
	uStats := unboundedIt.Stats()
	if bStats.MaxQueueSize > uStats.MaxQueueSize {
		t.Errorf("MaxK pruning grew the queue: %d > %d",
			bStats.MaxQueueSize, uStats.MaxQueueSize)
	}
	// After k pairs the bounded iterator refuses more.
	it2, err := New(ta, tb, Options{Traversal: Simultaneous, MaxK: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, ok, err := it2.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 3 {
		t.Fatalf("MaxK=3 reported %d pairs", n)
	}
}

func TestDifferentHeightsIncremental(t *testing.T) {
	ps := uniformPoints(9, 30, 0)
	qs := uniformPoints(10, 3000, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	if ta.Height() == tb.Height() {
		t.Fatal("test requires different heights")
	}
	want := core.BruteForceKCP(ps, qs, 25)
	for _, tr := range Traversals() {
		got, _, err := GetK(ta, tb, 25, Options{Traversal: tr})
		if err != nil {
			t.Fatalf("%v: %v", tr, err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v pair %d: dist %.12g, want %.12g", tr, i, got[i].Dist, want[i].Dist)
			}
		}
		// Swapped orientation.
		got2, _, err := GetK(tb, ta, 25, Options{Traversal: tr})
		if err != nil {
			t.Fatalf("%v swapped: %v", tr, err)
		}
		for i := range got2 {
			if math.Abs(got2[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v swapped pair %d: dist %.12g, want %.12g",
					tr, i, got2[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestIncrementalErrors(t *testing.T) {
	ps := uniformPoints(11, 10, 0)
	ta := buildTree(t, ps, 256)
	empty := buildTree(t, nil, 256)
	if _, err := New(ta, empty, Options{}); err == nil {
		t.Error("empty Q must fail")
	}
	if _, err := New(empty, ta, Options{}); err == nil {
		t.Error("empty P must fail")
	}
	if _, err := New(ta, ta, Options{Traversal: Traversal(9)}); err == nil {
		t.Error("bad traversal must fail")
	}
	if _, err := New(ta, ta, Options{MaxK: -1}); err == nil {
		t.Error("negative MaxK must fail")
	}
	if _, _, err := GetK(ta, ta, 0, Options{}); err == nil {
		t.Error("k=0 must fail")
	}
}

func TestHeapAlgQueueIsSmallerThanIncremental(t *testing.T) {
	// Section 3.9: the paper's HEAP stores only node/node pairs, so its
	// queue must stay far smaller than the incremental algorithms'.
	ps := uniformPoints(12, 1500, 0)
	qs := uniformPoints(13, 1500, 0.9)
	ta := buildTree(t, ps, 1024)
	tb := buildTree(t, qs, 1024)

	_, hStats, err := core.KClosestPairs(ta, tb, 100, core.DefaultOptions(core.Heap))
	if err != nil {
		t.Fatal(err)
	}
	_, iStats, err := GetK(ta, tb, 100, Options{Traversal: Simultaneous})
	if err != nil {
		t.Fatal(err)
	}
	if hStats.MaxQueueSize >= iStats.MaxQueueSize {
		t.Errorf("HEAP queue %d not smaller than incremental queue %d",
			hStats.MaxQueueSize, iStats.MaxQueueSize)
	}
}

func TestRandomizedIncrementalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	trials := 25
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		np := 2 + rng.Intn(150)
		nq := 2 + rng.Intn(150)
		ps := uniformPoints(rng.Int63(), np, 0)
		qs := uniformPoints(rng.Int63(), nq, rng.Float64()*1.5)
		ta := buildTree(t, ps, 256)
		tb := buildTree(t, qs, 256)
		k := 1 + rng.Intn(np*nq)
		opts := Options{Traversal: Traversals()[rng.Intn(3)]}
		got, _, err := GetK(ta, tb, k, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := core.BruteForceKCP(ps, qs, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v k=%d): got %d pairs, want %d",
				trial, opts, k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d (%v k=%d) pair %d: %.12g vs %.12g",
					trial, opts, k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestIncrementalUnderMetrics(t *testing.T) {
	ps := uniformPoints(20, 200, 0)
	qs := uniformPoints(21, 200, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, m := range []geom.Metric{geom.L1(), geom.LInf()} {
		want := core.BruteForceKCPMetric(ps, qs, 30, m)
		got, _, err := GetK(ta, tb, 30, Options{Traversal: Simultaneous, Metric: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v pair %d: dist %.12g, want %.12g", m, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestPolicyStringers(t *testing.T) {
	for _, tr := range Traversals() {
		if tr.String() == "" {
			t.Error("empty traversal name")
		}
	}
	if Traversal(9).String() != "Traversal(9)" {
		t.Error("unknown traversal String")
	}
}
