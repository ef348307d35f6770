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

// TestNodeCacheDirectMapped: a page has one slot, its id mod the
// capacity. An Add to an occupied slot replaces its node, a Get of a page
// whose slot holds another page is a miss, and Invalidate drops only its
// own page's node.
func TestNodeCacheDirectMapped(t *testing.T) {
	c := NewNodeCache(4, 1)
	n1 := &Node{ID: 1}
	n5 := &Node{ID: 5} // slot 1, as page 1
	n2 := &Node{ID: 2}
	c.Add(n1)
	c.Add(n2)
	if got, ok := c.Get(1); !ok || got != n1 {
		t.Fatalf("Get(1) = %v, %v", got, ok)
	}
	if _, ok := c.Get(5); ok {
		t.Fatal("Get(5) hit a slot that holds page 1")
	}
	c.Add(n5)
	if _, ok := c.Get(1); ok {
		t.Fatal("page 1 survived a conflicting Add")
	}
	if got, ok := c.Get(5); !ok || got != n5 {
		t.Fatalf("Get(5) = %v, %v", got, ok)
	}
	c.Invalidate(1) // slot 1 holds page 5: nothing to drop
	if got, ok := c.Get(5); !ok || got != n5 {
		t.Fatalf("Invalidate(1) dropped page 5: %v, %v", got, ok)
	}
	c.Invalidate(5)
	if _, ok := c.Get(5); ok {
		t.Fatal("page 5 survived Invalidate")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (page 2)", c.Len())
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 3 {
		t.Fatalf("Stats = %+v, want 3 hits 3 misses", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("HitRate = %g", st.HitRate())
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

// TestNodeCacheExactCapacity: the cache has exactly the slots asked for,
// with no rounding to a power of two, so 2,500 slots never hold 4,096
// nodes.
func TestNodeCacheExactCapacity(t *testing.T) {
	c := NewNodeCache(2500, 8)
	if c.Capacity() != 2500 {
		t.Fatalf("Capacity = %d, want 2500", c.Capacity())
	}
	for id := storage.PageID(0); id < 4096; id++ {
		c.Add(&Node{ID: id})
	}
	if c.Len() != 2500 {
		t.Fatalf("Len = %d, want 2500", c.Len())
	}
	for id := storage.PageID(0); id < 4096; id++ {
		_, ok := c.Get(id)
		if want := id >= 4096-2500; ok != want {
			t.Fatalf("Get(%d) hit = %v, want %v", id, ok, want)
		}
	}
	if c := NewNodeCache(0, 0); c.Capacity() != 1 {
		t.Fatalf("NewNodeCache(0) capacity = %d, want 1", c.Capacity())
	}
}

// TestNodeCacheConcurrentInvalidate races readers that Get and Add
// against a goroutine that runs Invalidate and Clear on the same slots
// (run under -race in CI). A hit must hand back the node of the page
// asked for, whole.
func TestNodeCacheConcurrentInvalidate(t *testing.T) {
	const pages = 64
	c := NewNodeCache(16, 1)
	nodes := make([]*Node, pages)
	for i := range nodes {
		nodes[i] = &Node{ID: storage.PageID(i), Level: i % 3, Entries: []Entry{{Ref: int64(i)}}}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%64 == 63 {
				c.Clear()
			} else {
				c.Invalidate(storage.PageID(i % pages))
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 20000; i++ {
				id := rng.Intn(pages)
				n, ok := c.Get(storage.PageID(id))
				if !ok {
					c.Add(nodes[id])
					continue
				}
				if n != nodes[id] || n.Entries[0].Ref != int64(id) {
					t.Errorf("Get(%d) returned page %d", id, n.ID)
					return
				}
			}
		}(int64(g))
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	if st := c.Stats(); st.Lookups() != 4*20000 {
		t.Fatalf("lookups = %d, want %d", st.Lookups(), 4*20000)
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
			fresh, err := tr.readNodeFresh(n.ID)
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
