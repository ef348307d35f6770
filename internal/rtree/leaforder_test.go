package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// rawLeafOrder decodes every node page of the tree's file straight from
// the pool — not through ReadNode, not by following child pointers — and
// returns how many leaf pages there are and how many of them are in leaf
// order. Meta and free-list pages do not decode as nodes and are skipped.
func rawLeafOrder(t testing.TB, tr *Tree) (ordered, leaves int) {
	t.Helper()
	pool := tr.Pool()
	for id := int64(0); id < pool.File().NumPages(); id++ {
		err := pool.View(storage.PageID(id), func(buf []byte) error {
			n, err := decodeNode(storage.PageID(id), buf)
			if err != nil || !n.IsLeaf() {
				return nil
			}
			leaves++
			if LeafOrdered(n.Entries) {
				ordered++
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return ordered, leaves
}

func requireLeavesOrdered(t *testing.T, tr *Tree, when string) {
	t.Helper()
	if ordered, leaves := rawLeafOrder(t, tr); ordered != leaves || leaves == 0 {
		t.Fatalf("%s: %d of %d leaf pages x-ordered", when, ordered, leaves)
	}
}

// TestLeafOrderOnEveryWritePath: whatever sequence of bulk load, insertion
// (splits, forced reinsertion) and deletion (condensation, reinsertion of
// orphans) wrote the pages, every leaf page on file is x-ordered. Half the
// points are quantized so that leaves hold runs of equal x.
func TestLeafOrderOnEveryWritePath(t *testing.T) {
	for _, pageSize := range []int{256, 0} { // 0: the default, 1 KB
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			point := func() geom.Point {
				p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
				if rng.Intn(2) == 0 {
					p.X = math.Floor(p.X*16) / 16
				}
				return p
			}
			var live []Item
			tr := newTestTree(t, Config{PageSize: pageSize})
			for i := 0; i < 1500; i++ {
				live = append(live, Item{Rect: point().Rect(), Ref: int64(i)})
			}
			if err := tr.BulkLoad(slices.Clone(live), 0.7); err != nil {
				t.Fatal(err)
			}
			requireLeavesOrdered(t, tr, "after bulk load")

			_, packed := rawLeafOrder(t, tr)
			for i := 0; i < 3000; i++ {
				it := Item{Rect: point().Rect(), Ref: int64(len(live))}
				if err := tr.Insert(it.Rect, it.Ref); err != nil {
					t.Fatal(err)
				}
				live = append(live, it)
				if i%500 == 0 {
					requireLeavesOrdered(t, tr, "while inserting")
				}
			}
			requireLeavesOrdered(t, tr, "after inserts")
			if _, grown := rawLeafOrder(t, tr); grown <= packed {
				t.Fatalf("inserts split no leaf (%d leaves before, %d after)", packed, grown)
			}

			rng.Shuffle(len(live), func(i, k int) { live[i], live[k] = live[k], live[i] })
			for i, it := range live[:len(live)*4/5] {
				if err := tr.Delete(it.Rect, it.Ref); err != nil {
					t.Fatal(err)
				}
				if i%500 == 0 {
					requireLeavesOrdered(t, tr, "while deleting")
				}
			}
			requireLeavesOrdered(t, tr, "after deletes")
			if tr.freeHead == storage.InvalidPageID {
				t.Fatal("deletes dissolved no node: condensation not exercised")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A tree grown from nothing: the single-leaf root, its first split.
	tr := newTestTree(t, Config{PageSize: 256})
	for i, p := range randPoints(77, 400) {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
		requireLeavesOrdered(t, tr, "insertion-built")
	}
}

// TestUnorderedLeavesAreValid: the leaf order is the writer's habit, not a
// structural invariant — a file whose leaves are in any other order (one
// written before the order existed) passes CheckInvariants and answers
// searches, and the next write to a leaf puts that leaf in order.
func TestUnorderedLeavesAreValid(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 256})
	pts := randPoints(5, 300)
	insertAll(t, tr, pts)
	var leaves []*Node
	if err := tr.Walk(func(n *Node) error {
		if n.IsLeaf() {
			leaves = append(leaves, n)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, tr.Config().PageSize)
	for _, n := range leaves {
		rev := &Node{ID: n.ID, Level: 0, Entries: slices.Clone(n.Entries)}
		slices.Reverse(rev.Entries)
		if err := encodeNode(rev, buf); err != nil {
			t.Fatal(err)
		}
		if err := tr.Pool().Write(rev.ID, buf); err != nil {
			t.Fatal(err)
		}
	}
	ordered, n := rawLeafOrder(t, tr)
	if n != len(leaves) || ordered == n {
		t.Fatalf("reversing %d leaves left %d of %d ordered", len(leaves), ordered, n)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("unordered leaves rejected: %v", err)
	}
	found := 0
	if err := tr.All(func(Item) bool { found++; return true }); err != nil || found != len(pts) {
		t.Fatalf("All found %d of %d points (err %v)", found, len(pts), err)
	}

	if err := tr.InsertPoint(geom.Point{X: 0.5, Y: 0.5}, 1000); err != nil {
		t.Fatal(err)
	}
	if after, _ := rawLeafOrder(t, tr); after <= ordered {
		t.Fatalf("a write ordered no leaf: %d ordered before, %d after", ordered, after)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
