package rtree

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

const fuzzPageSize = 1024

// FuzzNodeRoundTrip asserts the node codec is a lossless involution on
// every page image that decodes at all: decode -> encode canonicalizes,
// and from there encode and decode are exact mutual inverses
// (serialize -> deserialize -> serialize is byte-identical, including NaN
// payload bits in coordinates, which the codec moves through
// math.Float64bits untouched). The same page is also decoded into a dirty,
// larger caller-owned node (decodeNodeInto): the result must be the node
// decodeNode returns and nothing of the old contents may show past count.
func FuzzNodeRoundTrip(f *testing.F) {
	seed := func(level int, entries []Entry) []byte {
		buf := make([]byte, fuzzPageSize)
		if err := encodeNode(&Node{ID: 7, Level: level, Entries: entries}, buf); err != nil {
			f.Fatal(err)
		}
		return buf
	}
	f.Add(seed(0, nil)) // empty leaf
	f.Add(seed(0, []Entry{
		{Rect: geom.Point{X: 0.25, Y: -4}.Rect(), Ref: 1},
		{Rect: geom.Point{X: math.Inf(1), Y: math.NaN()}.Rect(), Ref: -9},
	}))
	f.Add(seed(3, []Entry{
		{Rect: geom.Rect{Min: geom.Point{X: -1, Y: -2}, Max: geom.Point{X: 3, Y: 4}}, Ref: 42},
	}))
	f.Add([]byte{}) // too small: must be rejected, not crash

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzPageSize {
			data = data[:fuzzPageSize]
		}
		page := make([]byte, fuzzPageSize)
		copy(page, data)
		dirty := dirtyNode()
		n, err := decodeNode(storage.PageID(3), page)
		intoErr := decodeNodeInto(storage.PageID(3), page, dirty)
		if (err == nil) != (intoErr == nil) {
			t.Fatalf("decodeNode err = %v, decodeNodeInto err = %v", err, intoErr)
		}
		if err != nil {
			// Malformed page rejected; nothing to round-trip, and the
			// caller's node is as it was.
			if want := dirtyNode(); dirty.ID != want.ID || dirty.Level != want.Level ||
				len(dirty.Entries) != len(want.Entries) {
				t.Fatalf("rejected page changed the caller's node: %+v", dirty)
			}
			return
		}
		if dirty.ID != n.ID || dirty.Level != n.Level || len(dirty.Entries) != len(n.Entries) {
			t.Fatalf("decodeNodeInto shape (id %d level %d entries %d) != decodeNode (id %d level %d entries %d)",
				dirty.ID, dirty.Level, len(dirty.Entries), n.ID, n.Level, len(n.Entries))
		}
		for i := range n.Entries {
			if !entriesBitEqual(n.Entries[i], dirty.Entries[i]) {
				t.Fatalf("decodeNodeInto entry %d = %+v, decodeNode %+v", i, dirty.Entries[i], n.Entries[i])
			}
		}
		first := make([]byte, fuzzPageSize)
		if err := encodeNode(n, first); err != nil {
			t.Fatalf("decoded node does not re-encode: %v", err)
		}
		n2, err := decodeNode(storage.PageID(3), first)
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		if n2.Level != n.Level || len(n2.Entries) != len(n.Entries) {
			t.Fatalf("shape changed: level %d->%d entries %d->%d",
				n.Level, n2.Level, len(n.Entries), len(n2.Entries))
		}
		for i := range n.Entries {
			if !entriesBitEqual(n.Entries[i], n2.Entries[i]) {
				t.Fatalf("entry %d changed: %+v -> %+v", i, n.Entries[i], n2.Entries[i])
			}
		}
		second := make([]byte, fuzzPageSize)
		if err := encodeNode(n2, second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("serialize -> deserialize -> serialize is not byte-identical")
		}
	})
}

// dirtyNode is a caller-owned node left over from a previous read: more
// entries than any page of fuzzPageSize holds, all of them recognisable.
func dirtyNode() *Node {
	n := &Node{ID: 99, Level: 9, Entries: make([]Entry, maxEntriesForPage(fuzzPageSize)+3)}
	for i := range n.Entries {
		n.Entries[i] = Entry{Rect: geom.Point{X: -777, Y: -777}.Rect(), Ref: -777}
	}
	return n
}

// entriesBitEqual compares entries at the bit level, so NaN coordinates
// compare by payload instead of always differing.
func entriesBitEqual(a, b Entry) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Ref == b.Ref &&
		eq(a.Rect.Min.X, b.Rect.Min.X) && eq(a.Rect.Min.Y, b.Rect.Min.Y) &&
		eq(a.Rect.Max.X, b.Rect.Max.X) && eq(a.Rect.Max.Y, b.Rect.Max.Y)
}
