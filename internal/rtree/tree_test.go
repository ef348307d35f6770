package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// newTestTree builds an empty tree on a fresh in-memory pool.
func newTestTree(t testing.TB, cfg Config) *Tree {
	t.Helper()
	cfg.fillDefaults()
	pool := storage.NewBufferPool(storage.NewMemFile(cfg.PageSize), 1024)
	tr, err := New(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// randPoints generates n deterministic pseudo-random points in [0,1)^2.
func randPoints(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

func insertAll(t testing.TB, tr *Tree, pts []geom.Point) {
	t.Helper()
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.9, Y: 0.9}, {X: 0.5, Y: 0.5}, {X: 0.2, Y: 0.8}}
	insertAll(t, tr, pts)
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d, want 1 (root leaf)", tr.Height())
	}
	var got []int64
	err := tr.Search(geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 0.6, Y: 1}}, func(it Item) bool {
		got = append(got, it.Ref)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int64{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestInsertInvalidRect(t *testing.T) {
	tr := newTestTree(t, Config{})
	bad := geom.Rect{Min: geom.Point{X: 1, Y: 0}, Max: geom.Point{X: 0, Y: 1}}
	if err := tr.Insert(bad, 0); err == nil {
		t.Fatal("inserting an inverted rect must fail")
	}
	if err := tr.Insert(geom.EmptyRect(), 0); err == nil {
		t.Fatal("inserting an empty rect must fail")
	}
}

func TestInsertManyInvariants(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := randPoints(1, 3000)
	insertAll(t, tr, pts)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if h := tr.Height(); h < 2 {
		t.Fatalf("Height = %d, want >= 2", h)
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := randPoints(2, 2000)
	insertAll(t, tr, pts)
	rng := rand.New(rand.NewSource(3))
	for q := 0; q < 50; q++ {
		x, y := rng.Float64(), rng.Float64()
		w, h := rng.Float64()*0.3, rng.Float64()*0.3
		query := geom.Rect{Min: geom.Point{X: x, Y: y}, Max: geom.Point{X: x + w, Y: y + h}}
		want := map[int64]bool{}
		for i, p := range pts {
			if query.Contains(p.Rect()) {
				want[int64(i)] = true
			}
		}
		got := map[int64]bool{}
		err := tr.Search(query, func(it Item) bool {
			got[it.Ref] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %v: got %d results, want %d", query, len(got), len(want))
		}
		for ref := range want {
			if !got[ref] {
				t.Fatalf("query %v: missing ref %d", query, ref)
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := newTestTree(t, Config{})
	insertAll(t, tr, randPoints(4, 500))
	count := 0
	err := tr.Search(geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}}, func(Item) bool {
		count++
		return count < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("visited %d, want early stop at 10", count)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := randPoints(5, 777)
	insertAll(t, tr, pts)
	seen := map[int64]bool{}
	if err := tr.All(func(it Item) bool { seen[it.Ref] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(pts) {
		t.Fatalf("All visited %d, want %d", len(seen), len(pts))
	}
}

func TestHeightMatchesPaperSetup(t *testing.T) {
	// With the paper's configuration (M=21, m=7), 20K uniform points build
	// a 4-level R*-tree and 80K points a 5-level one (Section 4.2).
	if testing.Short() {
		t.Skip("short mode")
	}
	tr := newTestTree(t, DefaultConfig())
	insertAll(t, tr, randPoints(6, 20000))
	if h := tr.Height(); h != 4 {
		t.Errorf("20K-point height = %d, paper has 4", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicatePoints(t *testing.T) {
	tr := newTestTree(t, Config{})
	p := geom.Point{X: 0.5, Y: 0.5}
	for i := 0; i < 100; i++ {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := tr.Search(p.Rect(), func(Item) bool { count++; return true }); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("found %d duplicates, want 100", count)
	}
}

func TestEmptyTreeQueries(t *testing.T) {
	tr := newTestTree(t, Config{})
	if err := tr.Search(geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}},
		func(Item) bool { t.Fatal("unexpected visit"); return true }); err != nil {
		t.Fatal(err)
	}
	b, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	if !b.IsEmpty() {
		t.Fatalf("Bounds = %v, want empty", b)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsCoverAllPoints(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := randPoints(7, 1500)
	insertAll(t, tr, pts)
	b, err := tr.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if !b.Contains(p.Rect()) {
			t.Fatalf("bounds %v does not contain %v", b, p)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 16)
	if _, err := New(pool, Config{PageSize: 1024, MaxEntries: 50, MinEntries: 7}); err == nil {
		t.Error("M=50 must not fit a 1KB page")
	}
	if _, err := New(pool, Config{PageSize: 1024, MaxEntries: 20, MinEntries: 15}); err == nil {
		t.Error("m > M/2 must be rejected")
	}
	if _, err := New(pool, Config{PageSize: 512, MaxEntries: 8, MinEntries: 3,
		ReinsertFraction: 0.9}); err == nil {
		t.Error("reinsert fraction 0.9 must be rejected")
	}
	// Pool page size mismatch.
	if _, err := New(pool, Config{PageSize: 2048, MaxEntries: 20, MinEntries: 6}); err == nil {
		t.Error("page size mismatch must be rejected")
	}
}

func TestNewRequiresEmptyFile(t *testing.T) {
	file := storage.NewMemFile(1024)
	if _, err := file.Allocate(); err != nil {
		t.Fatal(err)
	}
	pool := storage.NewBufferPool(file, 16)
	if _, err := New(pool, Config{}); err == nil {
		t.Fatal("New on non-empty file must fail")
	}
}

func TestNodeCount(t *testing.T) {
	tr := newTestTree(t, Config{})
	insertAll(t, tr, randPoints(8, 2000))
	counts, err := tr.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) != tr.Height() {
		t.Fatalf("levels = %d, height = %d", len(counts), tr.Height())
	}
	if counts[len(counts)-1] != 1 {
		t.Fatalf("root level count = %d", counts[len(counts)-1])
	}
	for lvl := 0; lvl+1 < len(counts); lvl++ {
		if counts[lvl] <= counts[lvl+1] {
			t.Fatalf("level %d (%d nodes) not larger than level %d (%d nodes)",
				lvl, counts[lvl], lvl+1, counts[lvl+1])
		}
	}
}

func TestDifferentPageSizes(t *testing.T) {
	for _, ps := range []int{256, 512, 1024, 4096} {
		cfg := Config{PageSize: ps}
		tr := newTestTree(t, cfg)
		insertAll(t, tr, randPoints(9, 800))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("page size %d: %v", ps, err)
		}
	}
}

func TestConfigAccessorAndWalk(t *testing.T) {
	tr := newTestTree(t, Config{})
	cfg := tr.Config()
	if cfg.MaxEntries != 21 || cfg.MinEntries != 7 || cfg.PageSize != 1024 {
		t.Errorf("Config = %+v", cfg)
	}
	insertAll(t, tr, randPoints(70, 500))
	nodes := 0
	leafEntries := 0
	err := tr.Walk(func(n *Node) error {
		nodes++
		if n.IsLeaf() {
			leafEntries += len(n.Entries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, err := tr.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	wantNodes := 0
	for _, c := range counts {
		wantNodes += c
	}
	if nodes != wantNodes {
		t.Errorf("Walk visited %d nodes, NodeCount says %d", nodes, wantNodes)
	}
	if leafEntries != 500 {
		t.Errorf("Walk saw %d leaf entries, want 500", leafEntries)
	}
}
