package rtree

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
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
	for _, fill := range []float64{-0.1, 0, 1.5} {
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
// pages.
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
	presorted := newTestTree(t, Config{})
	SortSTR(items)
	if err := presorted.BulkLoadSorted(items, 0.9); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tr   *Tree
	}{{"BulkLoad", direct}, {"SortSTR + BulkLoadSorted", presorted}} {
		if got := pageFileHash(t, c.tr, false); got != want {
			t.Errorf("%s page image hash = %s, want %s", c.name, got, want)
		}
		if got := pageFileHash(t, c.tr, true); got != wantByRef {
			t.Errorf("%s Ref-canonical page image hash = %s, want %s", c.name, got, wantByRef)
		}
	}
}
