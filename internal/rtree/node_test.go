package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
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

// TestCodecFastPathMatchesFields holds the one-copy codec to the
// field-by-field one, bit for bit, on random pages and on adversarial
// values: NaN payloads, ±0, ±Inf, ±MaxFloat64, the smallest denormal and
// negative refs. The encoders must write the same page whatever the
// buffer held before, and a page at an odd address, which cannot be
// viewed as entries, must decode the same through the fallback.
func TestCodecFastPathMatchesFields(t *testing.T) {
	if (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64") && !entryIsPageSlot {
		t.Fatalf("entryIsPageSlot is false on %s: the one-copy codec never runs", runtime.GOARCH)
	}
	special := []uint64{
		0, 1 << 63, // ±0
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		math.Float64bits(math.SmallestNonzeroFloat64),
		0x7ff8000000000001, 0xfff8000000000abc, // quiet NaNs with payloads
		0x7ff0000000000001, 0xfff4000000000000, // signalling NaNs
		0x7fffffffffffffff, 0xffffffffffffffff,
	}
	refs := []int64{-1, math.MinInt64, math.MaxInt64, 0, -777}
	rng := rand.New(rand.NewSource(41))
	word := func(adversarial bool) uint64 {
		if adversarial {
			return special[rng.Intn(len(special))]
		}
		return rng.Uint64()
	}
	for trial := 0; trial < 400; trial++ {
		adversarial := trial%2 == 1
		n := &Node{ID: 5, Level: rng.Intn(4), Entries: make([]Entry, rng.Intn(maxEntriesForPage(fuzzPageSize)+1))}
		for i := range n.Entries {
			f := func() float64 { return math.Float64frombits(word(adversarial)) }
			ref := int64(rng.Uint64())
			if adversarial {
				ref = refs[rng.Intn(len(refs))]
			}
			n.Entries[i] = Entry{Rect: geom.Rect{Min: geom.Point{X: f(), Y: f()}, Max: geom.Point{X: f(), Y: f()}}, Ref: ref}
		}

		page := alignedPage(fuzzPageSize)
		if err := encodeNode(n, page); err != nil {
			t.Fatal(err)
		}
		if entryIsPageSlot && len(n.Entries) > 0 && pageEntries(page, len(n.Entries)) == nil {
			t.Fatalf("trial %d: an aligned page took the field-by-field path", trial)
		}
		fields := make([]byte, fuzzPageSize)
		fields[0], fields[1] = nodeMagic0, nodeMagic1
		fields[2], fields[4] = byte(n.Level), byte(len(n.Entries))
		encodeEntryFields(fields, n.Entries)
		if !bytes.Equal(page, fields) {
			t.Fatalf("trial %d: one-copy and field-by-field encodings differ", trial)
		}
		dirty := alignedPage(fuzzPageSize)
		for i := range dirty {
			dirty[i] = 0xA5
		}
		if err := encodeNode(n, dirty); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(page, dirty) {
			t.Fatalf("trial %d: encoding over a dirty buffer left old bytes", trial)
		}

		fast := make([]Entry, len(n.Entries))
		decodeEntries(page, fast)
		slow := make([]Entry, len(n.Entries))
		decodeEntryFields(page, slow)
		odd := atOddAddress(page)
		if pageEntries(odd, len(n.Entries)) != nil {
			t.Fatalf("trial %d: a page at an odd address was viewed in place", trial)
		}
		var atOdd Node
		if err := decodeNodeInto(5, odd, &atOdd); err != nil {
			t.Fatal(err)
		}
		if len(atOdd.Entries) != len(n.Entries) {
			t.Fatalf("trial %d: odd-address decode has %d entries, want %d", trial, len(atOdd.Entries), len(n.Entries))
		}
		for i := range n.Entries {
			if !entriesBitEqual(fast[i], n.Entries[i]) || !entriesBitEqual(slow[i], n.Entries[i]) ||
				!entriesBitEqual(atOdd.Entries[i], n.Entries[i]) {
				t.Fatalf("trial %d entry %d: wrote %+v, one copy %+v, fields %+v, odd address %+v",
					trial, i, n.Entries[i], fast[i], slow[i], atOdd.Entries[i])
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
