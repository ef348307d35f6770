package rtree

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

func TestNodeEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 100; trial++ {
		n := &Node{ID: 7, Level: rng.Intn(6)}
		count := rng.Intn(25)
		for i := 0; i < count; i++ {
			minX, minY := rng.NormFloat64()*1e3, rng.NormFloat64()*1e3
			n.Entries = append(n.Entries, Entry{
				Rect: geom.Rect{
					Min: geom.Point{X: minX, Y: minY},
					Max: geom.Point{X: minX + rng.Float64(), Y: minY + rng.Float64()},
				},
				Ref: rng.Int63() - rng.Int63(),
			})
		}
		buf := make([]byte, 1024)
		if err := encodeNode(n, buf); err != nil {
			t.Fatal(err)
		}
		got, err := decodeNode(7, buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Level != n.Level || got.ID != n.ID || len(got.Entries) != len(n.Entries) {
			t.Fatalf("header mismatch: %+v vs %+v", got, n)
		}
		for i := range n.Entries {
			if got.Entries[i] != n.Entries[i] {
				t.Fatalf("entry %d mismatch: %+v vs %+v", i, got.Entries[i], n.Entries[i])
			}
		}
	}
}

func TestNodeEncodeTooBig(t *testing.T) {
	n := &Node{ID: 1, Level: 0}
	for i := 0; i < 100; i++ {
		n.Entries = append(n.Entries, Entry{Rect: geom.Point{X: 0, Y: 0}.Rect()})
	}
	if err := encodeNode(n, make([]byte, 1024)); err == nil {
		t.Fatal("oversized node must not encode")
	}
}

func TestDecodeNodeBadMagic(t *testing.T) {
	buf := make([]byte, 1024)
	buf[0], buf[1] = 'X', 'Y'
	if _, err := decodeNode(3, buf); err == nil {
		t.Fatal("bad magic must be rejected")
	}
}

func TestDecodeNodeShortPage(t *testing.T) {
	if _, err := decodeNode(3, make([]byte, 4)); err == nil {
		t.Fatal("short page must be rejected")
	}
}

func TestDecodeNodeCountOverflow(t *testing.T) {
	buf := make([]byte, 64)
	buf[0], buf[1] = nodeMagic0, nodeMagic1
	buf[4] = 200 // count = 200, cannot fit 64 bytes
	if _, err := decodeNode(3, buf); err == nil {
		t.Fatal("overflowing count must be rejected")
	}
}

func TestMaxEntriesForPage(t *testing.T) {
	// 1 KB page: (1024-8)/40 = 25 entries fit; the paper's M=21 fits too.
	if got := maxEntriesForPage(1024); got != 25 {
		t.Errorf("maxEntriesForPage(1024) = %d, want 25", got)
	}
	if got := maxEntriesForPage(256); got != 6 {
		t.Errorf("maxEntriesForPage(256) = %d, want 6", got)
	}
}

func TestNodeMBR(t *testing.T) {
	n := &Node{Entries: []Entry{
		{Rect: geom.Rect{Min: geom.Point{X: 0, Y: 0}, Max: geom.Point{X: 1, Y: 1}}},
		{Rect: geom.Rect{Min: geom.Point{X: 2, Y: -1}, Max: geom.Point{X: 3, Y: 0.5}}},
	}}
	want := geom.Rect{Min: geom.Point{X: 0, Y: -1}, Max: geom.Point{X: 3, Y: 1}}
	if got := n.MBR(); !got.Equal(want) {
		t.Errorf("MBR = %v, want %v", got, want)
	}
	empty := &Node{}
	if !empty.MBR().IsEmpty() {
		t.Error("empty node MBR must be empty")
	}
}

// TestReadNodeIntoWarmZeroAlloc: reading into a node the caller keeps is
// free once the node's entry slice has grown — the property the K-CPQ
// scratch is built on. The page access is ReadNode's: same hits, same node.
func TestReadNodeIntoWarmZeroAlloc(t *testing.T) {
	tr := newTestTree(t, Config{})
	if err := tr.BulkLoad(itemsFromPoints(randPoints(50, 2000)), 1.0); err != nil {
		t.Fatal(err)
	}
	var ids []storage.PageID
	if err := tr.Walk(func(n *Node) error { ids = append(ids, n.ID); return nil }); err != nil {
		t.Fatal(err)
	}
	var dst Node
	if err := tr.ReadNodeInto(ids[0], &dst); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if err := tr.ReadNodeInto(ids[i%len(ids)], &dst); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("warm ReadNodeInto allocates %v per read, want 0", allocs)
	}

	before := tr.Pool().Stats()
	for _, id := range ids {
		want, err := tr.ReadNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.ReadNodeInto(id, &dst); err != nil {
			t.Fatal(err)
		}
		if dst.ID != want.ID || dst.Level != want.Level || len(dst.Entries) != len(want.Entries) {
			t.Fatalf("page %d: ReadNodeInto %+v, ReadNode %+v", id, dst, *want)
		}
		for e := range want.Entries {
			if dst.Entries[e] != want.Entries[e] {
				t.Fatalf("page %d entry %d differs", id, e)
			}
		}
	}
	if d := tr.Pool().Stats().Sub(before); d.Hits+d.Reads != int64(2*len(ids)) {
		t.Fatalf("%d reads through both paths cost %d pool accesses", 2*len(ids), d.Hits+d.Reads)
	}

	if err := tr.ReadNodeInto(storage.PageID(0), &dst); err == nil {
		t.Fatal("the meta page must not decode as a node")
	}
}
