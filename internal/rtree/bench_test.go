package rtree

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func BenchmarkInsert(b *testing.B) {
	pts := randPoints(1, b.N)
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 512)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.InsertPoint(pts[i], int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBulkLoadSTR(b *testing.B) {
	pts := randPoints(2, 20000)
	items := itemsFromPoints(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool := storage.NewBufferPool(storage.NewMemFile(1024), 512)
		tr, err := New(pool, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(items, 1.0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeSearch(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 4096)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range randPoints(3, 20000) {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	query := geom.Rect{Min: geom.Point{X: 0.4, Y: 0.4}, Max: geom.Point{X: 0.6, Y: 0.6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if err := tr.Search(query, func(Item) bool { count++; return true }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearestNeighbors(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 4096)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i, p := range randPoints(4, 20000) {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := geom.Point{X: float64(i%100) / 100, Y: float64(i%97) / 97}
		if _, err := tr.NearestNeighbors(q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNodeCacheHit reads a warm tree's nodes through ReadNodeInto
// with a cache that holds them all, from GOMAXPROCS goroutines at once:
// the cost of a hit, the copy included, when parallel workers share it.
func BenchmarkNodeCacheHit(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 4096)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(itemsFromPoints(randPoints(4, 20000)), 0.7); err != nil {
		b.Fatal(err)
	}
	var ids []storage.PageID
	if err := tr.Walk(func(n *Node) error { ids = append(ids, n.ID); return nil }); err != nil {
		b.Fatal(err)
	}
	tr.SetNodeCache(NewNodeCache(4096, 1))
	var dst Node
	for _, id := range ids {
		if err := tr.ReadNodeInto(id, &dst); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst Node
		for i := 0; pb.Next(); i++ {
			if err := tr.ReadNodeInto(ids[i%len(ids)], &dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := tr.NodeCacheStats(); st.Misses != int64(len(ids)) {
		b.Fatalf("misses = %d, want %d (the warm-up)", st.Misses, len(ids))
	}
}

// BenchmarkReadNodeInto reads a warm tree's nodes through ReadNodeInto
// from GOMAXPROCS goroutines at once, without a node cache: the pool
// lookup and the page decode under the pool's lock, the read every node
// visit of a K-CPQ makes. Run it at -cpu 1,2.
func BenchmarkReadNodeInto(b *testing.B) {
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 4096)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	if err := tr.BulkLoad(itemsFromPoints(randPoints(4, 20000)), 0.7); err != nil {
		b.Fatal(err)
	}
	var ids []storage.PageID
	if err := tr.Walk(func(n *Node) error { ids = append(ids, n.ID); return nil }); err != nil {
		b.Fatal(err)
	}
	pool.ResetStats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst Node
		for i := 0; pb.Next(); i++ {
			if err := tr.ReadNodeInto(ids[i%len(ids)], &dst); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	if st := pool.Stats(); st.Reads != 0 {
		b.Fatalf("reads = %d, want 0: the pool holds the tree", st.Reads)
	}
}
