package rtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// TestInsertPageImagePinned pins the page file that one-at-a-time
// insertion writes, byte for byte, on three runs: a seeded uniform build;
// a build on coordinates quantized to 1/64, where many candidates tie on
// overlap and area enlargement and only the tie order decides the subtree
// and the split; and an interleaved insert/delete run on a small pool with
// a node cache attached and range searches filling it between updates.
// Any change to ChooseSubtree, forced reinsertion, the split or the
// condensation of underfull nodes moves a hash.
func TestInsertPageImagePinned(t *testing.T) {
	const (
		wantUniform     = "f0f3a2b927b86c5b53f7a4d8a63693dd9f7d7dccbe66fdeba4cb007da1554b93"
		wantQuantized   = "e1dd9114e437b994c1f706e9c690e80758dccfb004b31f433793206e2a54b6b2"
		wantInterleaved = "99e520f338335bb9fc35ad2f52202a9f6f1db09e062471437d17c81145942629"
	)
	uniform := newTestTree(t, Config{})
	insertAll(t, uniform, randPoints(3501, 10000))
	if got := pageFileHash(t, uniform, false); got != wantUniform {
		t.Errorf("uniform insertion build page image hash = %s, want %s", got, wantUniform)
	}

	rng := rand.New(rand.NewSource(3502))
	quantized := make([]geom.Point, 10000)
	for i := range quantized {
		quantized[i] = geom.Point{X: math.Floor(rng.Float64()*64) / 64, Y: math.Floor(rng.Float64()*64) / 64}
	}
	qtree := newTestTree(t, Config{})
	insertAll(t, qtree, quantized)
	if got := pageFileHash(t, qtree, false); got != wantQuantized {
		t.Errorf("quantized insertion build page image hash = %s, want %s", got, wantQuantized)
	}

	pool := storage.NewBufferPool(storage.NewMemFile(1024), 16)
	mixed, err := New(pool, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mixed.SetNodeCache(NewNodeCache(64, 2))
	interleaveInsertDelete(t, mixed, rand.New(rand.NewSource(3503)), 8000)
	if got := pageFileHash(t, mixed, false); got != wantInterleaved {
		t.Errorf("interleaved insert/delete page image hash = %s, want %s", got, wantInterleaved)
	}
}

// interleaveInsertDelete runs ops random updates on tr, two inserts to
// every delete, with a range search every 50 operations so a node cache,
// when one is attached, holds decodes of pages the updates rewrite. The
// deletes take only points it inserted itself. It checks the size and the
// invariants at the end and returns nothing: the tree is the result.
func interleaveInsertDelete(t *testing.T, tr *Tree, rng *rand.Rand, ops int) {
	t.Helper()
	start := tr.Len()
	type rec struct {
		p   geom.Point
		ref int64
	}
	var live []rec
	for op := 0; op < ops; op++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if err := tr.InsertPoint(p, int64(op)); err != nil {
				t.Fatalf("op %d: insert: %v", op, err)
			}
			live = append(live, rec{p, int64(op)})
		} else {
			i := rng.Intn(len(live))
			if err := tr.DeletePoint(live[i].p, live[i].ref); err != nil {
				t.Fatalf("op %d: delete: %v", op, err)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if op%50 == 0 {
			x, y := rng.Float64(), rng.Float64()
			q := geom.Rect{Min: geom.Point{X: x, Y: y}, Max: geom.Point{X: x + 0.2, Y: y + 0.2}}
			if err := tr.Search(q, func(Item) bool { return true }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want := start + int64(len(live)); tr.Len() != want {
		t.Fatalf("Len = %d, want %d", tr.Len(), want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// refChooseLeastOverlapEnlargement is ChooseSubtree's overlap rule as it
// stood before the pruned search: every candidate's full O(M) overlap sum,
// compared under the (overlap, enlargement, area, index) order. It is the
// reference the pruned search must match index for index.
func refChooseLeastOverlapEnlargement(n *Node, r geom.Rect) int {
	sum := func(i int) float64 {
		enlarged := n.Entries[i].Rect.Union(r)
		var delta float64
		for j := range n.Entries {
			if j != i {
				delta += enlarged.OverlapArea(n.Entries[j].Rect) - n.Entries[i].Rect.OverlapArea(n.Entries[j].Rect)
			}
		}
		return delta
	}
	best := 0
	bestOverlap := sum(0)
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		ov := sum(i)
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if ov < bestOverlap ||
			(ov == bestOverlap && enl < bestEnl) ||
			(ov == bestOverlap && enl == bestEnl && area < bestArea) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// TestChooseSubtreeMatchesExhaustiveReference holds the pruned overlap
// search to the exhaustive one on random nodes of 2 to 22 entries built
// from a coarse grid, so that entries repeat, nest, touch and collapse to
// zero area, at unit scale and at 1e307, where areas overflow to +Inf and
// overlap sums turn NaN. A NaN sum must be installed as best exactly when
// the reference installs it, which a search that visited the candidates
// out of index order would break.
func TestChooseSubtreeMatchesExhaustiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3504))
	grid := func() float64 { return float64(rng.Intn(9)) / 8 }
	randRect := func(scale float64) geom.Rect {
		x1, x2, y1, y2 := grid(), grid(), grid(), grid()
		if rng.Intn(3) == 0 { // a point
			x2, y2 = x1, y1
		}
		return geom.Rect{
			Min: geom.Point{X: min(x1, x2) * scale, Y: min(y1, y2) * scale},
			Max: geom.Point{X: max(x1, x2) * scale, Y: max(y1, y2) * scale},
		}
	}
	nanNodes := 0
	for _, scale := range []float64{1, 1e307} {
		for trial := 0; trial < 30000; trial++ {
			n := &Node{Level: 1, Entries: make([]Entry, 2+rng.Intn(21))}
			for i := range n.Entries {
				switch {
				case i > 0 && rng.Intn(5) == 0: // a duplicate
					n.Entries[i] = n.Entries[rng.Intn(i)]
				case i > 0 && rng.Intn(5) == 0: // nested in an earlier entry
					outer := n.Entries[rng.Intn(i)].Rect
					inner := outer
					inner.Min.X += (outer.Max.X - outer.Min.X) / 4
					inner.Max.Y -= (outer.Max.Y - outer.Min.Y) / 4
					n.Entries[i].Rect = inner
				default:
					n.Entries[i].Rect = randRect(scale)
				}
				n.Entries[i].Ref = int64(i)
			}
			r := randRect(scale)
			want := refChooseLeastOverlapEnlargement(n, r)
			if got := chooseLeastOverlapEnlargement(n, r); got != want {
				t.Fatalf("scale %g trial %d: pruned search chose %d, reference %d\nnode %v\nr %v",
					scale, trial, got, want, n.Entries, r)
			}
			if math.IsNaN(overlapEnlargement(n, want, r)) {
				nanNodes++
			}
		}
	}
	if nanNodes == 0 {
		t.Fatal("no trial chose a candidate with a NaN overlap sum: the 1e307 rows test nothing")
	}
}

// TestWritePathLeavesCachedNodesAlone takes nodes from ReadNode with a
// node cache attached, then runs a thousand inserts and deletes, which
// decode every page they touch into the tree's own per-level nodes. The
// nodes handed out before must still read as they did: the write path
// never decodes into, and never caches, a node a reader holds.
func TestWritePathLeavesCachedNodesAlone(t *testing.T) {
	tr := newTestTree(t, Config{})
	insertAll(t, tr, randPoints(3505, 3000))
	tr.SetNodeCache(NewNodeCache(4096, 2))
	var held, snapshot []*Node
	if err := tr.Walk(func(n *Node) error {
		held = append(held, n)
		snapshot = append(snapshot, &Node{ID: n.ID, Level: n.Level, Entries: append([]Entry(nil), n.Entries...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	interleaveInsertDelete(t, tr, rand.New(rand.NewSource(3506)), 1000)
	for i, n := range held {
		if !reflect.DeepEqual(n, snapshot[i]) {
			t.Fatalf("node of page %d changed under its reader after the updates", n.ID)
		}
	}
	if err := tr.Walk(func(n *Node) error {
		for _, p := range tr.path {
			if n == p {
				return fmt.Errorf("page %d: ReadNode returned a write-path node", n.ID)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInsertWarmAllocs bounds the allocations of one Insert into a warm
// 50k-point insertion-built tree, on the benchmark's mutate-query setup (a
// 512-page pool and a 4,096-node cache): the path is decoded into reused
// nodes and the reinsert queue is reused, so what is left is the split's
// and the forced reinsert's working slices.
func TestInsertWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts and a 50k-point build under -race say nothing")
	}
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 512)
	tr, err := New(pool, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	tr.SetNodeCache(NewNodeCache(4096, 1))
	insertAll(t, tr, randPoints(3507, 50000))
	extra := randPoints(3508, 2000)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := tr.InsertPoint(extra[i], int64(50000+i)); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs > 4 {
		t.Fatalf("warm Insert allocates %.2f objects on average, want at most 4", allocs)
	}
	t.Logf("warm Insert: %.2f allocations on average", allocs)
}
