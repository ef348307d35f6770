//go:build !race

package incremental

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// bulkTree bulk-loads pts into a tree whose pool holds every page.
func bulkTree(t testing.TB, pts []geom.Point) *rtree.Tree {
	t.Helper()
	tr, err := rtree.New(storage.NewBufferPool(storage.NewMemFile(1024), 4096), rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	if err := tr.BulkLoad(items, 1.0); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestJoinAllocs is the join's allocation budget: a full 20k × 20k join at
// K = 1000 reads its nodes into memory the iterator owns, so what it
// allocates is the iterator and the growth of its queue, its K-heap and
// its child lists, never anything per node read. The file is left out of
// -race builds, whose detector allocates state of its own.
func TestJoinAllocs(t *testing.T) {
	const n, k, budget = 20000, 1000, 64
	ta := bulkTree(t, dataset.Uniform(1801, n))
	tb := bulkTree(t, dataset.Uniform(1802, n))
	for _, tr := range Traversals() {
		var stats Stats
		allocs := testing.AllocsPerRun(1, func() {
			it, err := New(ta, tb, Options{Traversal: tr, MaxK: k})
			if err != nil {
				t.Fatal(err)
			}
			for {
				_, ok, err := it.Next()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
			stats = it.Stats()
		})
		t.Logf("%v: %.0f allocations, %d pops, max queue %d", tr, allocs, stats.Popped, stats.MaxQueueSize)
		if stats.Reported != k {
			t.Fatalf("%v: reported %d pairs, want %d", tr, stats.Reported, k)
		}
		if allocs >= budget {
			t.Errorf("%v: %.0f allocations, want fewer than %d", tr, allocs, budget)
		}
	}
}
