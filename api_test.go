package cpq

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
)

func randomPoints(seed int64, n int, dx float64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: dx + rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func TestBuildIndexAndQuery(t *testing.T) {
	ps := randomPoints(1, 500, 0)
	qs := randomPoints(2, 400, 0.5)
	p, err := BuildIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qs)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	pair, stats, err := ClosestPair(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceKCP(ps, qs, 1)[0]
	if math.Abs(pair.Dist-want.Dist) > 1e-9 {
		t.Fatalf("dist = %g, want %g", pair.Dist, want.Dist)
	}
	if stats.Accesses() < 0 {
		t.Fatal("negative accesses")
	}

	pairs, _, err := KClosestPairs(p, q, 25, WithAlgorithm(SortedDistancesAlgorithm))
	if err != nil {
		t.Fatal(err)
	}
	wantK := core.BruteForceKCP(ps, qs, 25)
	for i := range pairs {
		if math.Abs(pairs[i].Dist-wantK[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %g, want %g", i, pairs[i].Dist, wantK[i].Dist)
		}
	}
}

func TestAllQueryOptionsWork(t *testing.T) {
	p, err := BuildIndex(randomPoints(3, 300, 0), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(4, 300, 0.2), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	want := core.BruteForceKCP(randomPoints(3, 300, 0), randomPoints(4, 300, 0.2), 5)
	for _, opt := range [][]QueryOption{
		{WithAlgorithm(NaiveAlgorithm)},
		{WithAlgorithm(ExhaustiveAlgorithm)},
		{WithAlgorithm(SimpleAlgorithm)},
		{WithAlgorithm(SortedDistancesAlgorithm)},
		{WithAlgorithm(HeapAlgorithm)},
	} {
		got, _, err := KClosestPairs(p, q, 5, opt...)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("option set %v: pair %d dist %g, want %g", opt, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestIndexCRUD(t *testing.T) {
	idx, err := NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	pts := randomPoints(5, 200, 0)
	for i, p := range pts {
		if err := idx.Insert(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 200 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.Delete(pts[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := idx.Delete(pts[0], 0); err == nil {
		t.Fatal("double delete must fail")
	}
	if idx.Len() != 199 {
		t.Fatalf("Len after delete = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	count := 0
	b, err := idx.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Search(b, func(Point, int64) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 199 {
		t.Fatalf("Search found %d", count)
	}

	nn, err := idx.Nearest(Point{X: 0.5, Y: 0.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(nn) != 3 {
		t.Fatalf("Nearest returned %d", len(nn))
	}
	for i := 1; i < len(nn); i++ {
		if nn[i].Dist < nn[i-1].Dist {
			t.Fatal("Nearest not sorted")
		}
	}
}

func TestOnDiskIndexRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.cpq")
	pts := randomPoints(6, 300, 0)
	idx, err := BuildIndex(pts, WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 300 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	other, err := BuildIndex(randomPoints(7, 300, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	pair, _, err := ClosestPair(re, other)
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceKCP(pts, randomPoints(7, 300, 0.5), 1)[0]
	if math.Abs(pair.Dist-want.Dist) > 1e-9 {
		t.Fatalf("dist = %g, want %g", pair.Dist, want.Dist)
	}
}

func TestBulkLoadOption(t *testing.T) {
	pts := randomPoints(8, 2000, 0)
	bulk, err := BuildIndex(pts, WithBulkLoad(0.8))
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	if bulk.Len() != 2000 {
		t.Fatalf("Len = %d", bulk.Len())
	}
	if err := bulk.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndex(pts, WithBulkLoad(1.5)); err == nil {
		t.Fatal("bad fill must be rejected")
	}
}

func TestBufferControls(t *testing.T) {
	ps := randomPoints(9, 2000, 0)
	qs := randomPoints(10, 2000, 0.8)
	p, err := BuildIndex(ps, WithBufferPages(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qs, WithBufferPages(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	p.ResetIOStats()
	q.ResetIOStats()
	_, stats, err := ClosestPair(p, q)
	if err != nil {
		t.Fatal(err)
	}
	cold := stats.Accesses()
	if cold <= 0 {
		t.Fatal("no accesses with zero buffer")
	}
	// Generous buffers must not increase the cost.
	p.SetBufferPages(4096)
	q.SetBufferPages(4096)
	_, stats2, err := ClosestPair(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Accesses() > cold {
		t.Fatalf("buffered cost %d > cold cost %d", stats2.Accesses(), cold)
	}
	// Restoring zero capacity and dropping caches forces a cold start.
	p.SetBufferPages(0)
	q.SetBufferPages(0)
	p.DropCaches()
	q.DropCaches()
	_, stats3, err := ClosestPair(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats3.Accesses() != cold {
		t.Fatalf("post-drop cost %d != cold cost %d", stats3.Accesses(), cold)
	}
}

func TestSelfAndSemiFacade(t *testing.T) {
	pts := randomPoints(11, 400, 0)
	p, err := BuildIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pair, _, err := SelfClosestPair(p)
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceSelfKCP(pts, 1)[0]
	if math.Abs(pair.Dist-want.Dist) > 1e-9 {
		t.Fatalf("self dist = %g, want %g", pair.Dist, want.Dist)
	}
	kp, _, err := SelfKClosestPairs(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(kp) != 7 {
		t.Fatalf("self k pairs = %d", len(kp))
	}

	qs := randomPoints(12, 300, 0.4)
	q, err := BuildIndex(qs)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	semi, _, err := SemiClosestPairs(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(semi) != len(pts) {
		t.Fatalf("semi pairs = %d, want %d", len(semi), len(pts))
	}
}

func TestIncrementalJoinFacade(t *testing.T) {
	ps := randomPoints(13, 300, 0)
	qs := randomPoints(14, 300, 0.5)
	p, err := BuildIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qs)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	it, err := NewIncrementalJoin(p, q,
		WithTraversal(SimultaneousTraversal), WithMaxPairs(20))
	if err != nil {
		t.Fatal(err)
	}
	want := core.BruteForceKCP(ps, qs, 20)
	for i := 0; i < 20; i++ {
		pair, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("join ended early at %d", i)
		}
		if math.Abs(pair.Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %g, want %g", i, pair.Dist, want[i].Dist)
		}
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("join must stop at MaxPairs")
	}
	if it.Stats().Reported != 20 {
		t.Fatalf("reported = %d", it.Stats().Reported)
	}
}

func TestIndexOptionErrors(t *testing.T) {
	if _, err := NewIndex(WithPageSize(-1)); err == nil {
		t.Error("negative page size must fail")
	}
	if _, err := NewIndex(WithBufferPages(-1)); err == nil {
		t.Error("negative buffer must fail")
	}
	if _, err := NewIndex(WithPath("")); err == nil {
		t.Error("empty path must fail")
	}
	if _, err := OpenIndex(filepath.Join(t.TempDir(), "missing.idx")); err == nil {
		t.Error("missing index file must fail")
	}
	empty, err := NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	full, err := BuildIndex(randomPoints(15, 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if _, _, err := ClosestPair(empty, full); !errors.Is(err, core.ErrEmptyInput) {
		t.Errorf("empty index query err = %v", err)
	}
}

func TestMetricOptionsFacade(t *testing.T) {
	ps := randomPoints(30, 200, 0)
	qs := randomPoints(31, 200, 0.4)
	p, err := BuildIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qs)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	l3, err := Minkowski(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Minkowski(0.2); err == nil {
		t.Fatal("Minkowski(0.2) must fail")
	}
	for _, m := range []Metric{Euclidean(), Manhattan(), Chebyshev(), l3} {
		pair, _, err := ClosestPair(p, q, WithMetric(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		// Verify against a scan under the same metric.
		best := math.Inf(1)
		for _, a := range ps {
			for _, b := range qs {
				if d := m.Dist(a, b); d < best {
					best = d
				}
			}
		}
		if math.Abs(pair.Dist-best) > 1e-9 {
			t.Fatalf("%v: dist %.12g, want %.12g", m, pair.Dist, best)
		}
		// The incremental join must agree.
		it, err := NewIncrementalJoin(p, q, WithJoinMetric(m), WithMaxPairs(1))
		if err != nil {
			t.Fatal(err)
		}
		ipair, ok, err := it.Next()
		if err != nil || !ok {
			t.Fatalf("%v: incremental: ok=%v err=%v", m, ok, err)
		}
		if math.Abs(ipair.Dist-best) > 1e-9 {
			t.Fatalf("%v: incremental dist %.12g, want %.12g", m, ipair.Dist, best)
		}
	}
}

func TestFacadeMiscAccessors(t *testing.T) {
	idx, err := BuildIndex(randomPoints(50, 400, 0), WithNodeCapacity(10, 4), WithPageSize(512))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if idx.Height() < 2 {
		t.Errorf("Height = %d", idx.Height())
	}
	idx.ResetIOStats()
	if _, err := idx.Nearest(Point{X: 0.5, Y: 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	st := idx.IOStats()
	if st.Reads+st.Hits <= 0 {
		t.Errorf("IOStats not populated: %+v", st)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Invalid node capacity must be rejected at construction.
	if _, err := BuildIndex(randomPoints(51, 10, 0), WithNodeCapacity(10, 9)); err == nil {
		t.Error("m > M/2 must be rejected")
	}
}

// TestSemiBatchedFacade pins which semi-CPQ the facade runs: the batched
// traversal's access count, with the per-point search's distances.
func TestSemiBatchedFacade(t *testing.T) {
	p, err := BuildIndex(randomPoints(52, 300, 0), WithBufferPages(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(53, 300, 0.3), WithBufferPages(0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	got, stats, err := SemiClosestPairs(p, q)
	if err != nil {
		t.Fatal(err)
	}
	_, batched, err := core.SemiClosestPairsBatched(p.tree, q.tree, core.DefaultOptions(core.Heap))
	if err != nil {
		t.Fatal(err)
	}
	perPoint, pp, err := core.SemiClosestPairs(p.tree, q.tree, core.DefaultOptions(core.Heap))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses() != batched.Accesses() || stats.Accesses() >= pp.Accesses() {
		t.Fatalf("facade accesses = %d, want the batched %d (per-point: %d)",
			stats.Accesses(), batched.Accesses(), pp.Accesses())
	}
	if len(got) != len(perPoint) {
		t.Fatalf("sizes differ: %d vs %d", len(got), len(perPoint))
	}
	for i := range got {
		if math.Abs(got[i].Dist-perPoint[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, got[i].Dist, perPoint[i].Dist)
		}
	}
}
