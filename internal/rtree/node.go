// Package rtree implements a disk-based R*-tree (Beckmann, Kriegel,
// Schneider, Seeger; SIGMOD 1990) over the paged storage engine in
// internal/storage. It is the indexing substrate assumed by the paper: both
// point sets of a closest-pair query are stored in R*-trees whose nodes are
// disk pages, and every node visit is a (countable) page access.
//
// The package provides insertion with forced reinsertion, the R* node-split
// algorithm, deletion with tree condensation, STR bulk loading, range and
// nearest-neighbor queries, and the raw node access the closest-pair
// algorithms need to traverse two trees simultaneously.
package rtree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Entry is one slot of an R-tree node: a rectangle plus a reference. In an
// internal node the reference is the page id of the child node and the
// rectangle is the child's MBR; in a leaf the reference is an opaque record
// id and the rectangle is the data object's MBR (a degenerate rectangle for
// point data).
type Entry struct {
	Rect geom.Rect
	Ref  int64
}

// Child returns the entry's reference as a page id (internal nodes only).
func (e Entry) Child() storage.PageID { return storage.PageID(e.Ref) }

// Node is the decoded form of one R-tree page.
type Node struct {
	// ID is the page this node was read from / will be written to.
	ID storage.PageID
	// Level is the node's height above the leaves: 0 for leaves.
	Level int
	// Entries are the node's slots, at most Config.MaxEntries many
	// (one more transiently, while an overflow is being treated).
	Entries []Entry
}

// IsLeaf reports whether the node is a leaf.
func (n *Node) IsLeaf() bool { return n.Level == 0 }

// MBR returns the minimum bounding rectangle of all entries.
func (n *Node) MBR() geom.Rect {
	r := geom.EmptyRect()
	for i := range n.Entries {
		r = r.Union(n.Entries[i].Rect)
	}
	return r
}

// LeafOrdered reports whether entries are in leaf page order: ascending
// low x coordinate. The writer stores every leaf in this order so the
// closest-pair leaf scan, which sweeps along x, reads it without sorting.
// A page that is not (a file written before the order existed) is still a
// valid leaf; readers that depend on the order call OrderLeaf on their
// decoded copy instead of trusting the page.
func LeafOrdered(entries []Entry) bool {
	for i := 1; i < len(entries); i++ {
		if entries[i].Rect.Min.X < entries[i-1].Rect.Min.X {
			return false
		}
	}
	return true
}

// OrderLeaf puts entries in leaf page order, in place and without
// allocating: one pass when they already are, otherwise a stable sort, so
// the writer and a reader that finds an unordered page arrive at the same
// sequence from the same page.
func OrderLeaf(entries []Entry) {
	if !LeafOrdered(entries) {
		slices.SortStableFunc(entries, func(a, b Entry) int { return cmp.Compare(a.Rect.Min.X, b.Rect.Min.X) })
	}
}

// Page layout (little endian):
//
//	offset 0: magic "Rn" (2 bytes)
//	offset 2: level  uint16
//	offset 4: count  uint16
//	offset 6: reserved (2 bytes)
//	offset 8: count entries, 40 bytes each:
//	          minX, minY, maxX, maxY float64; ref int64
const (
	nodeHeaderSize = 8
	entrySize      = 40
	nodeMagic0     = 'R'
	nodeMagic1     = 'n'
)

// maxEntriesForPage returns the largest node fan-out that fits a page.
func maxEntriesForPage(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// encodeNode serializes n into buf (which must be the tree's page size).
// Everything past the last entry is zeroed, so a page's bytes depend on
// the node alone.
func encodeNode(n *Node, buf []byte) error {
	need := nodeHeaderSize + len(n.Entries)*entrySize
	if need > len(buf) {
		return fmt.Errorf("rtree: node with %d entries needs %d bytes, page is %d",
			len(n.Entries), need, len(buf))
	}
	if n.Level < 0 || n.Level > math.MaxUint16 {
		return fmt.Errorf("rtree: level %d out of range", n.Level)
	}
	buf[0], buf[1] = nodeMagic0, nodeMagic1
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.Level))
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(n.Entries)))
	buf[6], buf[7] = 0, 0
	if slots := pageEntries(buf, len(n.Entries)); slots != nil {
		copy(slots, n.Entries)
	} else {
		encodeEntryFields(buf, n.Entries)
	}
	clear(buf[need:])
	return nil
}

// encodeEntryFields writes entries into the page's first len(entries)
// slots one field at a time: the encoder wherever pageEntries cannot view
// the page as entries.
func encodeEntryFields(buf []byte, entries []Entry) {
	off := nodeHeaderSize
	for i := range entries {
		e := &entries[i]
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Rect.Min.X))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(e.Rect.Min.Y))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(e.Rect.Max.X))
		binary.LittleEndian.PutUint64(buf[off+24:], math.Float64bits(e.Rect.Max.Y))
		binary.LittleEndian.PutUint64(buf[off+32:], uint64(e.Ref))
		off += entrySize
	}
}

// decodeNode parses a page into a fresh Node. The returned node owns its
// entry slice, sized to the entry count; it does not alias buf.
func decodeNode(id storage.PageID, buf []byte) (*Node, error) {
	level, count, err := decodeHeader(id, buf)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: id, Level: level, Entries: make([]Entry, count)}
	decodeEntries(buf, n.Entries)
	return n, nil
}

// decodeNodeInto parses a page into a caller-owned node, overwriting all of
// it: ID, Level, and Entries resliced to exactly the page's entry count, so
// nothing of the node's previous contents stays visible. The entry slice
// is reused when it is large enough; when it has to grow it grows once to
// the most entries a page of this size can hold, so a node that is decoded
// into repeatedly stops allocating after its first use. Validation is
// decodeNode's; on error dst is left untouched. dst never aliases buf.
func decodeNodeInto(id storage.PageID, buf []byte, dst *Node) error {
	level, count, err := decodeHeader(id, buf)
	if err != nil {
		return err
	}
	if cap(dst.Entries) < count {
		dst.Entries = make([]Entry, count, maxEntriesForPage(len(buf)))
	}
	dst.ID, dst.Level, dst.Entries = id, level, dst.Entries[:count]
	decodeEntries(buf, dst.Entries)
	return nil
}

// decodeHeader validates a node page and returns its level and entry count.
func decodeHeader(id storage.PageID, buf []byte) (level, count int, err error) {
	if len(buf) < nodeHeaderSize {
		return 0, 0, fmt.Errorf("rtree: page %d too small (%d bytes)", id, len(buf))
	}
	if buf[0] != nodeMagic0 || buf[1] != nodeMagic1 {
		return 0, 0, fmt.Errorf("rtree: page %d is not an R-tree node (magic %q)",
			id, string(buf[:2]))
	}
	level = int(binary.LittleEndian.Uint16(buf[2:]))
	count = int(binary.LittleEndian.Uint16(buf[4:]))
	if nodeHeaderSize+count*entrySize > len(buf) {
		return 0, 0, fmt.Errorf("rtree: page %d count %d overflows page", id, count)
	}
	return level, count, nil
}

// decodeEntries fills entries from the page's first len(entries) slots:
// one copy where pageEntries can view the page as entries, field by field
// otherwise. Both give the same bits.
func decodeEntries(buf []byte, entries []Entry) {
	if slots := pageEntries(buf, len(entries)); slots != nil {
		copy(entries, slots)
		return
	}
	decodeEntryFields(buf, entries)
}

// decodeEntryFields is decodeEntries one field at a time.
func decodeEntryFields(buf []byte, entries []Entry) {
	off := nodeHeaderSize
	for i := range entries {
		entries[i] = Entry{
			Rect: geom.Rect{
				Min: geom.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+8:])),
				},
				Max: geom.Point{
					X: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+16:])),
					Y: math.Float64frombits(binary.LittleEndian.Uint64(buf[off+24:])),
				},
			},
			Ref: int64(binary.LittleEndian.Uint64(buf[off+32:])),
		}
		off += entrySize
	}
}

// entryIsPageSlot holds when an Entry in memory is byte for byte a page's
// entry slot: a little-endian host, 40 bytes without padding, and the
// fields at the slot's offsets (minX 0, minY 8, maxX 16, maxY 24, ref 32).
var entryIsPageSlot = func() bool {
	var e Entry
	at := func(p unsafe.Pointer) uintptr { return uintptr(p) - uintptr(unsafe.Pointer(&e)) }
	return binary.NativeEndian.Uint16([]byte{1, 0}) == 1 &&
		unsafe.Sizeof(e) == entrySize &&
		at(unsafe.Pointer(&e.Rect.Min.X)) == 0 && at(unsafe.Pointer(&e.Rect.Min.Y)) == 8 &&
		at(unsafe.Pointer(&e.Rect.Max.X)) == 16 && at(unsafe.Pointer(&e.Rect.Max.Y)) == 24 &&
		at(unsafe.Pointer(&e.Ref)) == 32
}()

// pageEntries returns the page's first count entry slots as an []Entry
// aliasing buf, or nil when the entries cannot be viewed in place: count
// is 0, entryIsPageSlot does not hold, or the entry area is not aligned
// for an Entry (a page at an odd address). The caller has checked that
// the slots fit in buf.
func pageEntries(buf []byte, count int) []Entry {
	if count == 0 || !entryIsPageSlot {
		return nil
	}
	p := unsafe.Pointer(&buf[nodeHeaderSize])
	if uintptr(p)%unsafe.Alignof(Entry{}) != 0 {
		return nil
	}
	return unsafe.Slice((*Entry)(p), count)
}
