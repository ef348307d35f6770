package rtree

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func TestNodeCacheLRU(t *testing.T) {
	c := NewNodeCache(2, 1)
	if c.Capacity() != 2 {
		t.Fatalf("Capacity = %d, want 2", c.Capacity())
	}
	n1 := &Node{ID: 1, Level: 0}
	n2 := &Node{ID: 2, Level: 0}
	n3 := &Node{ID: 3, Level: 0}
	c.Add(n1)
	c.Add(n2)
	if got, ok := c.Get(1); !ok || got != n1 {
		t.Fatalf("Get(1) = %v, %v", got, ok)
	}
	// 2 is now the LRU victim: adding 3 must evict it, not 1.
	c.Add(n3)
	if _, ok := c.Get(2); ok {
		t.Fatal("page 2 should have been evicted")
	}
	if got, ok := c.Get(1); !ok || got != n1 {
		t.Fatalf("page 1 evicted by LRU order violation (got %v, %v)", got, ok)
	}
	if got, ok := c.Get(3); !ok || got != n3 {
		t.Fatalf("Get(3) = %v, %v", got, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 1 {
		t.Fatalf("Stats = %+v, want 3 hits 1 miss", st)
	}
	if st.HitRate() != 0.75 {
		t.Fatalf("HitRate = %g", st.HitRate())
	}
	c.Invalidate(3)
	if _, ok := c.Get(3); ok {
		t.Fatal("page 3 survived Invalidate")
	}
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	c.ResetStats()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Stats after reset = %+v", st)
	}
}

func TestNodeCacheSharding(t *testing.T) {
	c := NewNodeCache(64, 5) // rounds up to 8 shards
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	for id := storage.PageID(0); id < 100; id++ {
		c.Add(&Node{ID: id})
	}
	if c.Len() > c.Capacity() {
		t.Fatalf("Len %d exceeds capacity %d", c.Len(), c.Capacity())
	}
}

// treeItems collects the full (rect, ref) content of a tree via Search.
func treeItems(t *testing.T, tr *Tree) []Item {
	t.Helper()
	var items []Item
	if err := tr.All(func(it Item) bool { items = append(items, it); return true }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(items, func(i, j int) bool {
		if items[i].Ref != items[j].Ref {
			return items[i].Ref < items[j].Ref
		}
		return items[i].Rect.Min.X < items[j].Rect.Min.X
	})
	return items
}

// warmCache reads every node of the tree so the cache holds the current
// version of each page.
func warmCache(t *testing.T, tr *Tree) {
	t.Helper()
	if err := tr.Walk(func(n *Node) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestNodeCacheInvalidation is the staleness property test: after warming
// the cache, every mutation (inserts, deletes, the reinsertion storms they
// trigger) must leave the cached view identical to an uncached tree built
// through the same history.
func TestNodeCacheInvalidation(t *testing.T) {
	cached := newTestTree(t, Config{PageSize: 256})
	cached.SetNodeCache(NewNodeCache(1024, 4))
	plain := newTestTree(t, Config{PageSize: 256})

	rng := rand.New(rand.NewSource(42))
	pts := randPoints(77, 600)
	live := map[int64]geom.Point{}
	apply := func(insert bool, p geom.Point, ref int64) {
		for _, tr := range []*Tree{cached, plain} {
			var err error
			if insert {
				err = tr.InsertPoint(p, ref)
			} else {
				err = tr.DeletePoint(p, ref)
			}
			if err != nil {
				t.Fatalf("insert=%v ref=%d: %v", insert, ref, err)
			}
		}
		if insert {
			live[ref] = p
		} else {
			delete(live, ref)
		}
	}

	for i, p := range pts[:400] {
		apply(true, p, int64(i))
	}
	// Warm the cache with the current tree, then mutate heavily: the cache
	// must never serve a pre-mutation node.
	warmCache(t, cached)
	for i, p := range pts[400:] {
		apply(true, p, int64(400+i))
		if rng.Intn(2) == 0 {
			// Delete a random live point.
			for ref, q := range live {
				apply(false, q, ref)
				break
			}
		}
		if i%50 == 0 {
			warmCache(t, cached)
		}
	}
	if err := cached.CheckInvariants(); err != nil {
		t.Fatalf("cached tree invariants: %v", err)
	}
	gotItems := treeItems(t, cached)
	wantItems := treeItems(t, plain)
	if len(gotItems) != len(live) {
		t.Fatalf("cached tree has %d items, want %d", len(gotItems), len(live))
	}
	if !reflect.DeepEqual(gotItems, wantItems) {
		t.Fatal("cached tree content diverged from uncached tree")
	}
	if st := cached.NodeCacheStats(); st.Hits == 0 {
		t.Fatalf("cache never hit: %+v", st)
	}
}

// TestNodeCacheReadPathEquivalence compares every node served through the
// cache against a fresh decode of the same page.
func TestNodeCacheReadPathEquivalence(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 256})
	insertAll(t, tr, randPoints(5, 500))
	tr.SetNodeCache(NewNodeCache(512, 2)) // larger than the tree: later passes hit
	for pass := 0; pass < 3; pass++ {
		err := tr.Walk(func(n *Node) error {
			fresh, err := tr.readNodeMut(n.ID)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(n, fresh) {
				return fmt.Errorf("page %d: cached node differs from fresh decode", n.ID)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := tr.NodeCacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected misses on the first pass and hits afterwards: %+v", st)
	}
}

// TestReadNodeIntoThroughCache: with a cache attached ReadNodeInto counts
// hits and misses exactly like ReadNode, fills the cache on a miss, and
// hands the caller a private copy — reordering its entries must not show
// in the cached, shared node.
func TestReadNodeIntoThroughCache(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 256})
	insertAll(t, tr, randPoints(8, 300))
	tr.SetNodeCache(NewNodeCache(512, 2))
	root := tr.RootID()

	var dst Node
	if err := tr.ReadNodeInto(root, &dst); err != nil {
		t.Fatal(err)
	}
	if st := tr.NodeCacheStats(); st.Hits != 0 || st.Misses != 1 || tr.NodeCache().Len() != 1 {
		t.Fatalf("first read: %+v, %d cached", st, tr.NodeCache().Len())
	}
	accesses := tr.Pool().Stats()
	if err := tr.ReadNodeInto(root, &dst); err != nil {
		t.Fatal(err)
	}
	if st := tr.NodeCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("second read: %+v", st)
	}
	if d := tr.Pool().Stats().Sub(accesses); d.Hits+d.Reads != 0 {
		t.Fatalf("a cache hit touched the pool: %+v", d)
	}

	shared, err := tr.ReadNode(root)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&dst, shared) {
		t.Fatal("ReadNodeInto copy differs from the cached node")
	}
	first := shared.Entries[0]
	dst.Entries[0], dst.Entries[1] = dst.Entries[1], dst.Entries[0]
	if shared.Entries[0] != first {
		t.Fatal("the caller's node aliases the cached node's entries")
	}
}

// TestNodeCacheConcurrentReaders hammers ReadNode from many goroutines
// with a cache attached (run under -race in CI).
func TestNodeCacheConcurrentReaders(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 256})
	insertAll(t, tr, randPoints(6, 400))
	tr.SetNodeCache(NewNodeCache(32, 4))
	var ids []storage.PageID
	if err := tr.Walk(func(n *Node) error { ids = append(ids, n.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				id := ids[rng.Intn(len(ids))]
				n, err := tr.ReadNode(id)
				if err != nil {
					t.Errorf("ReadNode(%d): %v", id, err)
					return
				}
				if n.ID != id {
					t.Errorf("ReadNode(%d) returned node %d", id, n.ID)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestSetNodeCacheClears ensures re-attaching a cache cannot serve nodes
// cached under a previous attachment.
func TestSetNodeCacheClears(t *testing.T) {
	tr := newTestTree(t, Config{})
	insertAll(t, tr, randPoints(7, 50))
	c := NewNodeCache(16, 1)
	tr.SetNodeCache(c)
	warmCache(t, tr)
	if c.Len() == 0 {
		t.Fatal("cache not warmed")
	}
	tr.SetNodeCache(c)
	if c.Len() != 0 {
		t.Fatalf("SetNodeCache did not clear: %d entries", c.Len())
	}
	if tr.NodeCache() != c {
		t.Fatal("NodeCache accessor mismatch")
	}
	tr.SetNodeCache(nil)
	if tr.NodeCache() != nil {
		t.Fatal("detach failed")
	}
}
