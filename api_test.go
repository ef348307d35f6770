package cpq

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/rtree"
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

// TestNearestRejectsNonFinitePoint: a query point with a NaN or infinite
// coordinate is an error, as Insert makes it, on a full index and on an
// empty one; it returns no neighbors "at" a meaningless distance.
func TestNearestRejectsNonFinitePoint(t *testing.T) {
	full, err := BuildIndex([]Point{{X: 0, Y: 0}, {X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	empty, err := NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	defer empty.Close()
	for _, p := range []Point{
		{X: math.NaN(), Y: 0.5}, {X: 0.5, Y: math.NaN()},
		{X: math.Inf(1), Y: 0.5}, {X: 0.5, Y: math.Inf(-1)},
	} {
		if err := full.Insert(p, 9); err == nil {
			t.Errorf("Insert(%v) accepted a non-finite point", p)
		}
		for name, idx := range map[string]*Index{"full": full, "empty": empty} {
			if nn, err := idx.Nearest(p, 2); err == nil {
				t.Errorf("%s index: Nearest(%v) = %v, want an error", name, p, nn)
			}
		}
	}
	if nn, err := full.Nearest(Point{X: 0.2, Y: 0.2}, 2); err != nil || len(nn) != 2 || nn[0].Ref != 0 {
		t.Fatalf("finite Nearest = %v, %v", nn, err)
	}
}

// TestNodeCapacityDefaults: the default index runs rtree.DefaultConfig,
// and an explicit minimum occupancy with the default M survives at the
// default page size as at any other.
func TestNodeCapacityDefaults(t *testing.T) {
	idx, err := NewIndex()
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if got, want := idx.tree.Config(), rtree.DefaultConfig(); got != want {
		t.Fatalf("default index config = %+v, want %+v", got, want)
	}
	for _, pageSize := range []int{1024, 4096} {
		idx, err := NewIndex(WithPageSize(pageSize), WithNodeCapacity(0, 5))
		if err != nil {
			t.Fatal(err)
		}
		cfg := idx.tree.Config()
		idx.Close()
		if cfg.PageSize != pageSize || cfg.MaxEntries != 21 || cfg.MinEntries != 5 {
			t.Fatalf("page %d, WithNodeCapacity(0, 5): config %+v, want M = 21, m = 5", pageSize, cfg)
		}
	}
}

// TestInsertionBuildAtExtremeMagnitudes builds by insertion, through
// BuildIndex and then Index.Insert, on uniform points scaled to ±1e300,
// ±1e307 and ±1.7e308. At the two larger scales every margin sum of the
// R* split overflows to +Inf, so no split axis wins on "<" and the split
// must still pick one; areas are +Inf and overlap sums NaN in
// ChooseSubtree. The tree must hold every point and stay valid.
func TestInsertionBuildAtExtremeMagnitudes(t *testing.T) {
	for _, scale := range []float64{1e300, 1e307, 1.7e308} {
		rng := rand.New(rand.NewSource(35))
		pts := make([]Point, 600)
		for i := range pts {
			pts[i] = Point{X: (2*rng.Float64() - 1) * scale, Y: (2*rng.Float64() - 1) * scale}
		}
		idx, err := BuildIndex(pts[:400])
		if err != nil {
			t.Fatalf("scale %g: BuildIndex: %v", scale, err)
		}
		for i := 400; i < len(pts); i++ {
			if err := idx.Insert(pts[i], int64(i)); err != nil {
				t.Fatalf("scale %g: Insert %d: %v", scale, i, err)
			}
		}
		if err := idx.CheckInvariants(); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		seen := make([]bool, len(pts))
		all := Rect{Min: Point{X: -math.MaxFloat64, Y: -math.MaxFloat64}, Max: Point{X: math.MaxFloat64, Y: math.MaxFloat64}}
		if err := idx.Search(all, func(p Point, ref int64) bool {
			if ref < 0 || ref >= int64(len(pts)) || seen[ref] || p != pts[ref] {
				t.Errorf("scale %g: Search returned ref %d at %v unexpectedly", scale, ref, p)
				return false
			}
			seen[ref] = true
			return true
		}); err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		if missing := slices.Index(seen, false); missing >= 0 {
			t.Errorf("scale %g: Search missed ref %d", scale, missing)
		}
		if err := idx.Close(); err != nil {
			t.Fatal(err)
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

// TestBufferControls compares access counts across three queries, so it
// runs them sequentially: a parallel query's workers share the pool, so
// its access counts vary run to run.
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
	_, stats, err := ClosestPair(p, q, WithParallelism(1))
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
	_, stats2, err := ClosestPair(p, q, WithParallelism(1))
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
	_, stats3, err := ClosestPair(p, q, WithParallelism(1))
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

// nodeCounter counts the node-pair expansions a query traces.
type nodeCounter struct{ n atomic.Int64 }

func (c *nodeCounter) Event(e TraceEvent) {
	if e.Kind == EvNodeExpanded {
		c.n.Add(1)
	}
}

// TestSelfJoinHonoursOptions: the self join is the K-CPQ join in self mode,
// so the tracer, algorithm, parallelism and metrics options reach it.
func TestSelfJoinHonoursOptions(t *testing.T) {
	pts := randomPoints(13, 600, 0)
	p, err := BuildIndex(pts)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const k = 20
	heap, _, err := SelfKClosestPairs(p, k)
	if err != nil {
		t.Fatal(err)
	}
	if want := core.BruteForceSelfKCP(pts, k); !slices.Equal(heap, want) {
		t.Fatalf("HEAP self join = %v, want %v", heap, want)
	}

	var tr nodeCounter
	_, stats, err := SelfKClosestPairs(p, k, WithTracer(&tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.n.Load(); got == 0 || got != stats.NodePairsProcessed {
		t.Fatalf("%d node_expanded events, NodePairsProcessed = %d", got, stats.NodePairsProcessed)
	}

	std, _, err := SelfKClosestPairs(p, k, WithAlgorithm(SortedDistancesAlgorithm), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(std, heap) {
		t.Fatalf("STD at W=2 = %v, HEAP %v", std, heap)
	}

	reg := NewMetrics()
	em := NewEngineMetrics(reg)
	var slow bytes.Buffer
	if _, _, err := SelfKClosestPairs(p, k, WithMetrics(em), WithSlowQueryLog(NewSlowQueryLog(0, &slow)), WithParallelism(1)); err != nil {
		t.Fatal(err)
	}
	if n := em.Queries.Value(); n != 1 {
		t.Fatalf("metrics recorded %d queries, want 1", n)
	}
	if !strings.Contains(slow.String(), `"HEAP self k=20"`) {
		t.Fatalf("report label is not the self join's: %s", slow.String())
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

// TestIndexErrorPathsCloseTheFile: an on-disk index that fails to open or
// to create must close the file it opened. Linux only: the test counts
// the process's open descriptors in /proc/self/fd around each call.
func TestIndexErrorPathsCloseTheFile(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	dir := t.TempDir()
	notMeta := filepath.Join(dir, "zeros.idx")
	if err := os.WriteFile(notMeta, make([]byte, 1024), 0o644); err != nil {
		t.Fatal(err)
	}
	calls := []struct {
		name string
		call func() error
	}{
		{"OpenIndex, page 0 not a meta page", func() error {
			_, err := OpenIndex(notMeta)
			return err
		}},
		{"NewIndex, node capacity the tree rejects", func() error {
			_, err := NewIndex(WithPath(filepath.Join(dir, "new.idx")), WithNodeCapacity(4, 3))
			return err
		}},
	}
	for _, c := range calls {
		before := openFDs()
		if err := c.call(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
		if after := openFDs(); after != before {
			t.Errorf("%s: %d open descriptors before, %d after", c.name, before, after)
		}
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

// TestContextEntryPointsHonourCancel: each of the facade's eight *Context
// entry points hands its caller's context to the engine. Under a
// cancelled context every one returns context.Canceled; one that passed
// context.Background() on would answer the query instead. The indexes are
// large enough that the semi and range joins, which look at the context
// only once per stride of loop steps, take more than one stride.
func TestContextEntryPointsHonourCancel(t *testing.T) {
	p, err := BuildIndex(randomPoints(31, 3000, 0), WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(32, 3000, 0), WithPageSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	calls := []struct {
		name string
		call func() error
	}{
		{"ClosestPairContext", func() error {
			_, _, err := ClosestPairContext(ctx, p, q)
			return err
		}},
		{"KClosestPairsContext", func() error {
			_, _, err := KClosestPairsContext(ctx, p, q, 10)
			return err
		}},
		{"SelfClosestPairContext", func() error {
			_, _, err := SelfClosestPairContext(ctx, p)
			return err
		}},
		{"SelfKClosestPairsContext", func() error {
			_, _, err := SelfKClosestPairsContext(ctx, p, 10)
			return err
		}},
		{"SemiClosestPairsContext", func() error {
			_, _, err := SemiClosestPairsContext(ctx, p, q)
			return err
		}},
		{"WithinDistanceContext", func() error {
			_, err := WithinDistanceContext(ctx, p, q, 0.01, func(Pair) bool { return true })
			return err
		}},
		{"ExplainContext", func() error {
			_, _, _, err := ExplainContext(ctx, p, q, 10)
			return err
		}},
		{"NewIncrementalJoinContext", func() error {
			it, err := NewIncrementalJoinContext(ctx, p, q)
			if err != nil {
				return err
			}
			_, _, err = it.Next()
			return err
		}},
	}
	for _, c := range calls {
		if err := c.call(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", c.name, err)
		}
	}
}
