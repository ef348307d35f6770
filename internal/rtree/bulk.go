package rtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/storage"
)

// BulkLoad fills an empty tree with items using Sort-Tile-Recursive (STR)
// packing (Leutenegger, Lopez, Edgington; ICDE 1997). Nodes are packed to
// fill * MaxEntries entries (fill in (0, 1]); packed trees have much lower
// node overlap than insertion-built trees, which is one of the build
// ablations the benchmarks explore.
func (t *Tree) BulkLoad(items []Item, fill float64) error {
	return t.bulkLoad(items, fill, false)
}

// SortSTR orders items exactly as BulkLoad's leaf-level STR pass would:
// stable by ascending MBR center X, ties by center Y. BulkLoadSorted
// skips that sort when handed items in this order, so callers building
// many trees (the shard partitioner) can run the dominant O(n log n)
// CPU phase of every build in parallel goroutines while the
// page-writing phase stays sequential: SortSTR touches only the slice
// it is given — never a tree, a buffer pool or a node cache — so it is
// safe to call from any goroutine.
func SortSTR(items []Item) {
	slices.SortStableFunc(items, func(a, b Item) int { return cmpCenterXY(a.Rect, b.Rect) })
}

// cmpCenterXY orders rectangles by ascending center X, ties by center Y;
// cmpCenterYX is the same with the axes swapped. Both are the three-way
// form of the "differs, then less" comparison STR has always sorted with,
// so a stable sort by them is the same permutation.
func cmpCenterXY(a, b geom.Rect) int {
	ca, cb := a.Center(), b.Center()
	if ca.X != cb.X {
		return cmp.Compare(ca.X, cb.X)
	}
	return cmp.Compare(ca.Y, cb.Y)
}

func cmpCenterYX(a, b geom.Rect) int {
	ca, cb := a.Center(), b.Center()
	if ca.Y != cb.Y {
		return cmp.Compare(ca.Y, cb.Y)
	}
	return cmp.Compare(ca.X, cb.X)
}

// BulkLoadSorted is BulkLoad for items already in SortSTR order: the
// leaf-level X-sort is skipped, everything else — slab tiling, per-slab
// Y-sorts, upper-level packing, page writes — is identical, so
// BulkLoadSorted after SortSTR produces a tree byte-identical to
// BulkLoad on the same items. The order is not re-verified; handing it
// unsorted items builds a valid but badly clustered tree.
func (t *Tree) BulkLoadSorted(items []Item, fill float64) error {
	return t.bulkLoad(items, fill, true)
}

func (t *Tree) bulkLoad(items []Item, fill float64, presorted bool) error {
	if t.size != 0 || t.root != storage.InvalidPageID {
		return errors.New("rtree: BulkLoad requires an empty tree")
	}
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("rtree: fill factor %g out of (0, 1]", fill)
	}
	if len(items) == 0 {
		return nil
	}
	for i := range items {
		if !items[i].Rect.Valid() {
			return fmt.Errorf("rtree: invalid rectangle %v at item %d", items[i].Rect, i)
		}
	}
	capacity := int(fill * float64(t.cfg.MaxEntries))
	if capacity < t.cfg.MinEntries {
		capacity = t.cfg.MinEntries
	}

	entries := make([]Entry, len(items))
	for i, it := range items {
		entries[i] = Entry{Rect: it.Rect, Ref: it.Ref}
	}
	level := 0
	for {
		nodes, err := t.packLevel(entries, level, capacity, presorted && level == 0)
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.root = nodes[0].ID
			t.height = level + 1
			break
		}
		next := make([]Entry, len(nodes))
		for i, n := range nodes {
			next[i] = Entry{Rect: n.MBR(), Ref: int64(n.ID)}
		}
		entries = next
		level++
	}
	t.size = int64(len(items))
	return t.writeMeta()
}

// packLevel tiles entries into nodes using STR: sort by center X, cut into
// vertical slabs, sort each slab by center Y, chop into nodes. Node sizes
// are pre-computed as an even distribution so that every node of a
// multi-node level respects the minimum occupancy m (a plain
// chop-into-runs-of-capacity leaves underfull tail nodes). Every produced
// node is written to its page. With presorted set the level's entries
// are already in SortSTR order (center X, tie Y) and the initial sort is
// skipped; the per-slab Y-sorts then mutate the given slice in place.
func (t *Tree) packLevel(entries []Entry, level, capacity int, presorted bool) ([]*Node, error) {
	n := len(entries)
	sizes := packSizes(n, capacity, t.cfg.MinEntries, t.cfg.MaxEntries)
	numNodes := len(sizes)
	//lint:ignore sqrtfree STR slab count is sqrt of the node count, not a distance comparison
	slabs := int(math.Ceil(math.Sqrt(float64(numNodes))))
	nodesPerSlab := (numNodes + slabs - 1) / slabs

	sorted := entries
	if !presorted {
		sorted = append([]Entry(nil), entries...)
		slices.SortStableFunc(sorted, func(a, b Entry) int { return cmpCenterXY(a.Rect, b.Rect) })
	}

	out := make([]*Node, 0, numNodes)
	next := 0 // next unconsumed entry in sorted
	for slabStart := 0; slabStart < numNodes; slabStart += nodesPerSlab {
		slabEnd := slabStart + nodesPerSlab
		if slabEnd > numNodes {
			slabEnd = numNodes
		}
		slabSize := 0
		for _, s := range sizes[slabStart:slabEnd] {
			slabSize += s
		}
		slab := sorted[next : next+slabSize]
		next += slabSize
		slices.SortStableFunc(slab, func(a, b Entry) int { return cmpCenterYX(a.Rect, b.Rect) })
		off := 0
		for _, s := range sizes[slabStart:slabEnd] {
			node, err := t.allocNode(level)
			if err != nil {
				return nil, err
			}
			node.Entries = append([]Entry(nil), slab[off:off+s]...)
			off += s
			if err := t.writeNode(node); err != nil {
				return nil, err
			}
			out = append(out, node)
		}
	}
	return out, nil
}

// packSizes distributes n entries over nodes such that each node holds
// between m and M entries (a single node may hold fewer than m: it becomes
// the root), targeting the requested capacity.
func packSizes(n, capacity, m, M int) []int {
	if n <= capacity {
		return []int{n}
	}
	numNodes := (n + capacity - 1) / capacity
	// Shrinking the node count raises per-node occupancy above m; a level
	// with fewer than 2m entries cannot form two legal nodes and stays one
	// (possibly over-capacity but never over M, because n <= 2m-1 <= M).
	if maxNodes := n / m; numNodes > maxNodes {
		numNodes = maxNodes
	}
	if numNodes <= 1 {
		return []int{n}
	}
	base := n / numNodes
	extra := n % numNodes
	sizes := make([]int, numNodes)
	for i := range sizes {
		sizes[i] = base
		if i < extra {
			sizes[i]++
		}
	}
	return sizes
}
