package rtree

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func itemsFromPoints(pts []geom.Point) []Item {
	items := make([]Item, len(pts))
	for i, p := range pts {
		items[i] = Item{Rect: p.Rect(), Ref: int64(i)}
	}
	return items
}

func TestBulkLoadBasic(t *testing.T) {
	tr := newTestTree(t, Config{})
	pts := randPoints(20, 5000)
	if err := tr.BulkLoad(itemsFromPoints(pts), 1.0); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 5000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	if err := tr.All(func(it Item) bool { seen[it.Ref] = true; return true }); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 5000 {
		t.Fatalf("All visited %d", len(seen))
	}
}

func TestBulkLoadSmall(t *testing.T) {
	for _, n := range []int{0, 1, 2, 21, 22, 100} {
		tr := newTestTree(t, Config{})
		pts := randPoints(21, n)
		if err := tr.BulkLoad(itemsFromPoints(pts), 1.0); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != int64(n) {
			t.Fatalf("n=%d: Len = %d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadFillFactor(t *testing.T) {
	full := newTestTree(t, Config{})
	if err := full.BulkLoad(itemsFromPoints(randPoints(22, 4000)), 1.0); err != nil {
		t.Fatal(err)
	}
	loose := newTestTree(t, Config{})
	if err := loose.BulkLoad(itemsFromPoints(randPoints(22, 4000)), 0.7); err != nil {
		t.Fatal(err)
	}
	fc, err := full.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := loose.NodeCount()
	if err != nil {
		t.Fatal(err)
	}
	if lc[0] <= fc[0] {
		t.Errorf("fill 0.7 leaves (%d) must outnumber fill 1.0 leaves (%d)", lc[0], fc[0])
	}
	if err := loose.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := newTestTree(t, Config{})
	insertAll(t, tr, randPoints(23, 10))
	if err := tr.BulkLoad(itemsFromPoints(randPoints(23, 10)), 1.0); err == nil {
		t.Fatal("BulkLoad on non-empty tree must fail")
	}
}

func TestBulkLoadRejectsBadFill(t *testing.T) {
	for _, fill := range []float64{-0.1, 0, 1.5, math.NaN()} {
		tr := newTestTree(t, Config{})
		if err := tr.BulkLoad(itemsFromPoints(randPoints(24, 10)), fill); err == nil {
			t.Fatalf("fill %g must be rejected", fill)
		}
	}
}

func TestBulkLoadMatchesInsertResults(t *testing.T) {
	// The two build paths must index the same content (query equivalence).
	pts := randPoints(25, 2000)
	bulk := newTestTree(t, Config{})
	if err := bulk.BulkLoad(itemsFromPoints(pts), 1.0); err != nil {
		t.Fatal(err)
	}
	ins := newTestTree(t, Config{})
	insertAll(t, ins, pts)
	query := geom.Rect{Min: geom.Point{X: 0.2, Y: 0.2}, Max: geom.Point{X: 0.7, Y: 0.6}}
	collect := func(tr *Tree) map[int64]bool {
		out := map[int64]bool{}
		if err := tr.Search(query, func(it Item) bool { out[it.Ref] = true; return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(bulk), collect(ins)
	if len(a) != len(b) {
		t.Fatalf("bulk found %d, insert found %d", len(a), len(b))
	}
	for ref := range a {
		if !b[ref] {
			t.Fatalf("ref %d missing from insert-built tree", ref)
		}
	}
}

func TestBulkLoadPacksTighter(t *testing.T) {
	// STR-packed trees must use no more pages than insertion-built ones.
	pts := randPoints(26, 5000)
	bulk := newTestTree(t, Config{})
	if err := bulk.BulkLoad(itemsFromPoints(pts), 1.0); err != nil {
		t.Fatal(err)
	}
	ins := newTestTree(t, Config{})
	insertAll(t, ins, pts)
	bp := bulk.Pool().File().NumPages()
	ip := ins.Pool().File().NumPages()
	if bp >= ip {
		t.Errorf("bulk pages %d >= insert pages %d", bp, ip)
	}
}

func TestBulkLoadInvalidItem(t *testing.T) {
	tr := newTestTree(t, Config{})
	items := []Item{{Rect: geom.EmptyRect(), Ref: 0}}
	if err := tr.BulkLoad(items, 1.0); err == nil {
		t.Fatal("BulkLoad with invalid rect must fail")
	}
}

func TestOpenPersistedTree(t *testing.T) {
	// Build on a MemFile, then reopen from the same file: the tree must be
	// fully reconstructable from pages alone.
	file := storage.NewMemFile(1024)
	pool := storage.NewBufferPool(file, 64)
	tr, err := New(pool, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(27, 3000)
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(storage.NewBufferPool(file, 64))
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != tr.Len() || re.Height() != tr.Height() || re.RootID() != tr.RootID() {
		t.Fatalf("reopened tree differs: len %d/%d height %d/%d root %d/%d",
			re.Len(), tr.Len(), re.Height(), tr.Height(), re.RootID(), tr.RootID())
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Mutations must keep working after reopen (free list, meta, etc.).
	if err := re.DeletePoint(pts[0], 0); err != nil {
		t.Fatal(err)
	}
	if err := re.InsertPoint(geom.Point{X: 0.42, Y: 0.42}, 99999); err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	file := storage.NewMemFile(1024)
	if _, err := file.Allocate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(storage.NewBufferPool(file, 4)); err == nil {
		t.Fatal("Open on a garbage page 0 must fail")
	}
}

// pageFileHash hashes every page of the tree's file in page order. With
// refCanonical set, each leaf page is hashed as if its entries were stored
// in ascending Ref order: that image depends on which entries sit in which
// leaf under which internal pages, not on the order inside a leaf.
func pageFileHash(t *testing.T, tr *Tree, refCanonical bool) string {
	t.Helper()
	f := tr.Pool().File()
	h := sha256.New()
	buf := make([]byte, f.PageSize())
	for id := int64(0); id < f.NumPages(); id++ {
		if err := f.ReadPage(storage.PageID(id), buf); err != nil {
			t.Fatal(err)
		}
		if n, err := decodeNode(storage.PageID(id), buf); refCanonical && err == nil && n.IsLeaf() {
			slices.SortFunc(n.Entries, func(a, b Entry) int { return cmp.Compare(a.Ref, b.Ref) })
			if err := encodeNode(n, buf); err != nil {
				t.Fatal(err)
			}
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBulkLoadPageImagePinned pins the page file a seeded 10k-point bulk
// load writes, byte for byte. Coordinates are quantized to 1/64 so that
// many centers tie on X and on Y — the ties are where a sort that is not
// the same stable order would place entries in different nodes. Two
// hashes: want is the image as written, re-derived when leaves became
// x-ordered (which changed the order inside each leaf by design);
// wantByRef is the image with every leaf's entries put in Ref order,
// recorded on the commit before that change and equal on both sides of
// it — the same entries sit in the same leaves under the same internal
// pages. Items handed over in SortSTR order write the same image: SortSTR
// is the leaf pass's own order, so the pass moves nothing.
func TestBulkLoadPageImagePinned(t *testing.T) {
	const (
		want      = "f12450a5734a9617dafb5f780134cf87cc06cf9e992ea04969764be2cf320d3a"
		wantByRef = "6aa55451bcf9a254d30a86bfb9dc79f6b00a55f011fef5e036a0df66f35266dd"
	)
	rng := rand.New(rand.NewSource(1809))
	items := make([]Item, 10000)
	for i := range items {
		p := geom.Point{X: math.Floor(rng.Float64()*64) / 64, Y: math.Floor(rng.Float64()*64) / 64}
		items[i] = Item{Rect: p.Rect(), Ref: int64(i)}
	}
	direct := newTestTree(t, Config{})
	if err := direct.BulkLoad(append([]Item(nil), items...), 0.9); err != nil {
		t.Fatal(err)
	}
	sorted := newTestTree(t, Config{})
	SortSTR(items)
	if err := sorted.BulkLoad(items, 0.9); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   *Tree
	}{{"BulkLoad", direct}, {"SortSTR + BulkLoad", sorted}} {
		if got := pageFileHash(t, c.tr, false); got != want {
			t.Errorf("%s page image hash = %s, want %s", c.name, got, want)
		}
		if got := pageFileHash(t, c.tr, true); got != wantByRef {
			t.Errorf("%s Ref-canonical page image hash = %s, want %s", c.name, got, wantByRef)
		}
	}
}

// refBulkLoad is the STR bulk load as it stood before the keyed sorts:
// stable sorts by center, the comparator recomputing both centers on every
// call, one fresh node per page. It is the reference the keyed build must
// match page for page.
func refBulkLoad(t *Tree, items []Item, fill float64) error {
	capacity := max(int(fill*float64(t.cfg.MaxEntries)), t.cfg.MinEntries)
	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry(it)
	}
	for level := 0; ; level++ {
		sizes := packSizes(len(entries), capacity, t.cfg.MinEntries, t.cfg.MaxEntries)
		slabs := int(math.Ceil(math.Sqrt(float64(len(sizes)))))
		nodesPerSlab := (len(sizes) + slabs - 1) / slabs
		sorted := slices.Clone(entries)
		slices.SortStableFunc(sorted, func(a, b Entry) int { return refCmpCenter(a.Rect, b.Rect, false) })
		var next []Entry
		for slabStart := 0; slabStart < len(sizes); slabStart += nodesPerSlab {
			slabSizes := sizes[slabStart:min(slabStart+nodesPerSlab, len(sizes))]
			slabSize := 0
			for _, s := range slabSizes {
				slabSize += s
			}
			slab := sorted[:slabSize]
			sorted = sorted[slabSize:]
			slices.SortStableFunc(slab, func(a, b Entry) int { return refCmpCenter(a.Rect, b.Rect, true) })
			for _, s := range slabSizes {
				node, err := t.allocNode(level)
				if err != nil {
					return err
				}
				node.Entries = slices.Clone(slab[:s])
				slab = slab[s:]
				if err := t.writeNode(node); err != nil {
					return err
				}
				next = append(next, Entry{Rect: node.MBR(), Ref: int64(node.ID)})
			}
		}
		if len(next) == 1 {
			t.root, t.height = next[0].Child(), level+1
			break
		}
		entries = next
	}
	t.size = int64(len(items))
	return t.writeMeta()
}

// refCmpCenter is the old comparator: center X then Y, or Y then X with
// yFirst set.
func refCmpCenter(a, b geom.Rect, yFirst bool) int {
	ca, cb := a.Center(), b.Center()
	if yFirst {
		ca.X, ca.Y, cb.X, cb.Y = ca.Y, ca.X, cb.Y, cb.X
	}
	if ca.X != cb.X {
		return cmp.Compare(ca.X, cb.X)
	}
	return cmp.Compare(ca.Y, cb.Y)
}

// TestBulkLoadMatchesStableSortReference holds the keyed STR build to the
// stable-sort build it replaced: the same page image from BulkLoad and the
// same permutation from SortSTR, at one and at four procs, on inputs whose
// centers tie heavily, on rectangles whose Min.X is not their center
// (OrderLeaf reorders those leaves), and on one point repeated, where the
// input position alone decides every comparison. The sizes fall on both
// sides of parallelSortMin.
func TestBulkLoadMatchesStableSortReference(t *testing.T) {
	q := func(rng *rand.Rand, steps float64) float64 { return math.Floor(rng.Float64()*steps) / steps }
	inputs := []struct {
		name string
		item func(rng *rand.Rand) geom.Rect
	}{
		{"quantized-points", func(rng *rand.Rand) geom.Rect {
			return geom.Point{X: q(rng, 32), Y: q(rng, 32)}.Rect()
		}},
		{"rects", func(rng *rand.Rand) geom.Rect {
			c := geom.Point{X: q(rng, 64), Y: q(rng, 64)}
			hw, hh := q(rng, 8)/64, q(rng, 8)/64
			return geom.Rect{Min: geom.Point{X: c.X - hw, Y: c.Y - hh}, Max: geom.Point{X: c.X + hw, Y: c.Y + hh}}
		}},
		{"one-point", func(*rand.Rand) geom.Rect { return geom.Point{X: 0.5, Y: 0.25}.Rect() }},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, in := range inputs {
		for _, n := range []int{1, 100, 3000, parallelSortMin, 10000, 50000} {
			rng := rand.New(rand.NewSource(int64(n)))
			items := make([]Item, n)
			for i := range items {
				items[i] = Item{Rect: in.item(rng), Ref: int64(i)}
			}
			ref := newTestTree(t, Config{})
			if err := refBulkLoad(ref, items, 0.7); err != nil {
				t.Fatal(err)
			}
			wantImage := pageFileHash(t, ref, false)
			wantOrder := slices.Clone(items)
			slices.SortStableFunc(wantOrder, func(a, b Item) int { return refCmpCenter(a.Rect, b.Rect, false) })
			for _, procs := range []int{1, 4} {
				name := fmt.Sprintf("%s/n=%d/procs=%d", in.name, n, procs)
				runtime.GOMAXPROCS(procs)
				tr := newTestTree(t, Config{})
				if err := tr.BulkLoad(items, 0.7); err != nil {
					t.Fatal(err)
				}
				if got := pageFileHash(t, tr, false); got != wantImage {
					t.Errorf("%s: BulkLoad page image %s, reference %s", name, got, wantImage)
				}
				order := slices.Clone(items)
				SortSTR(order)
				if !slices.Equal(order, wantOrder) {
					t.Errorf("%s: SortSTR permutation differs from the stable reference", name)
				}
			}
		}
	}
}
