package rtree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/storage"
)

// BulkLoad fills an empty tree with items using Sort-Tile-Recursive (STR)
// packing (Leutenegger, Lopez, Edgington; ICDE 1997). Nodes are packed to
// fill * MaxEntries entries (fill in (0, 1]); packed trees have much lower
// node overlap than insertion-built trees, which is one of the build
// ablations the benchmarks explore.
func (t *Tree) BulkLoad(items []Item, fill float64) error {
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

	// The key buffers serve every level, as levels only shrink, and every
	// node is written through the one node: a level hands the next only
	// each node's page id and MBR.
	keys := make([]strKey, len(items))
	var buf []strKey
	node := &Node{Entries: make([]Entry, 0, t.cfg.MaxEntries)}
	next, err := packLevel(t, items, keys, &buf, node, capacity)
	for err == nil && len(next) > 1 {
		node.Level++
		next, err = packLevel(t, next, keys, &buf, node, capacity)
	}
	if err != nil {
		return err
	}
	t.root = next[0].Child()
	t.height = node.Level + 1
	t.size = int64(len(items))
	return t.writeMeta()
}

// SortSTR orders items exactly as BulkLoad's leaf-level STR pass would:
// by ascending MBR center X, ties by center Y, then by input position —
// the order a stable sort by center gives. It touches only the slice it
// is given, so it is safe to call from any goroutine. Only the
// benchmark's rtree.sort_str_ns_per_point probe calls it, to time the
// sort apart from the page writes.
func SortSTR(items []Item) {
	orig := slices.Clone(items)
	var buf []strKey
	for j, k := range sortX(centerKeys(make([]strKey, len(items)), orig), &buf) {
		items[j] = orig[k.i]
	}
}

// strKey is an entry's STR sort key: its MBR center, computed once, and
// its position in the level's input.
type strKey struct {
	cx, cy float64
	i      int
}

// centerKeys fills keys with each entry's center and position. The
// leaf level packs the caller's items, the levels above the entries the
// level below returned; both are a rectangle and a reference.
func centerKeys[E Item | Entry](keys []strKey, entries []E) []strKey {
	for i := range entries {
		c := Entry(entries[i]).Rect.Center()
		keys[i] = strKey{c.X, c.Y, i}
	}
	return keys
}

// cmpKeyXY orders keys by ascending center X, ties by center Y, then by
// input position; cmpKeyYX is the same with the axes swapped. The
// position makes the order total, so any sort by it yields the one
// permutation a stable sort by center alone would. Centers of valid
// rectangles are never NaN, so < and > decide every other case.
func cmpKeyXY(a, b strKey) int {
	switch {
	case a.cx < b.cx:
		return -1
	case a.cx > b.cx:
		return 1
	case a.cy < b.cy:
		return -1
	case a.cy > b.cy:
		return 1
	}
	return cmp.Compare(a.i, b.i)
}

func cmpKeyYX(a, b strKey) int {
	switch {
	case a.cy < b.cy:
		return -1
	case a.cy > b.cy:
		return 1
	case a.cx < b.cx:
		return -1
	case a.cx > b.cx:
		return 1
	}
	return cmp.Compare(a.i, b.i)
}

// parallelSortMin is the key count from which a sort is split across
// goroutines; below it a goroutine costs more than it saves.
const parallelSortMin = 4096

// sortX sorts keys by cmpKeyXY. From parallelSortMin keys on it sorts the
// two halves on two goroutines and merges them into *buf, growing it if
// it is shorter than keys; it returns whichever of the two holds the
// result.
func sortX(keys []strKey, buf *[]strKey) []strKey {
	n := len(keys)
	if n < parallelSortMin {
		slices.SortFunc(keys, cmpKeyXY)
		return keys
	}
	if cap(*buf) < n {
		*buf = make([]strKey, n)
	}
	lo, hi := keys[:n/2], keys[n/2:]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		slices.SortFunc(lo, cmpKeyXY)
	}()
	slices.SortFunc(hi, cmpKeyXY)
	wg.Wait()
	out := (*buf)[:0]
	for len(lo) > 0 && len(hi) > 0 {
		if cmpKeyXY(lo[0], hi[0]) < 0 {
			out, lo = append(out, lo[0]), lo[1:]
		} else {
			out, hi = append(out, hi[0]), hi[1:]
		}
	}
	out = append(out, lo...)
	return append(out, hi...)
}

// sortSlabs sorts each run keys[bounds[s]:bounds[s+1]] by cmpKeyYX. The
// runs are disjoint, so from parallelSortMin keys on they are dealt out
// round robin to runtime.GOMAXPROCS(0) goroutines.
func sortSlabs(keys []strKey, bounds []int) {
	slabs := len(bounds) - 1
	workers := min(runtime.GOMAXPROCS(0), slabs)
	if len(keys) < parallelSortMin {
		workers = 1
	}
	sortEvery := func(first int) {
		for s := first; s < slabs; s += workers {
			slices.SortFunc(keys[bounds[s]:bounds[s+1]], cmpKeyYX)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sortEvery(w)
		}()
	}
	sortEvery(0)
	wg.Wait()
}

// packLevel tiles entries into nodes using STR: sort by center X, cut into
// vertical slabs, sort each slab by center Y, chop into nodes. Node sizes
// are pre-computed as an even distribution so that every node of a
// multi-node level respects the minimum occupancy m (a plain
// chop-into-runs-of-capacity leaves underfull tail nodes). The sorts run
// over keys (at least len(entries) long) and buf and touch nothing else;
// the nodes are then filled through node, allocated and written one at a
// time in slab order, so the page file does not depend on how the sorts
// were scheduled. It returns one entry per node written, at node.Level:
// its MBR and page id, the next level's input.
func packLevel[E Item | Entry](t *Tree, entries []E, keys []strKey, buf *[]strKey, node *Node, capacity int) ([]Entry, error) {
	n := len(entries)
	sizes := packSizes(n, capacity, t.cfg.MinEntries, t.cfg.MaxEntries)
	numNodes := len(sizes)
	// The slab count is the root of a node count, not a distance: the one
	// math.Sqrt outside the reporting functions (TestHotPathSourceRules).
	slabs := int(math.Ceil(math.Sqrt(float64(numNodes))))
	nodesPerSlab := (numNodes + slabs - 1) / slabs

	sorted := sortX(centerKeys(keys[:n], entries), buf)
	bounds := []int{0}
	for slabStart := 0; slabStart < numNodes; slabStart += nodesPerSlab {
		end := bounds[len(bounds)-1]
		for _, s := range sizes[slabStart:min(slabStart+nodesPerSlab, numNodes)] {
			end += s
		}
		bounds = append(bounds, end)
	}
	sortSlabs(sorted, bounds)

	out := make([]Entry, 0, numNodes)
	for _, s := range sizes {
		id, err := t.allocPage()
		if err != nil {
			return nil, err
		}
		node.ID = id
		node.Entries = node.Entries[:0]
		for _, k := range sorted[:s] {
			node.Entries = append(node.Entries, Entry(entries[k.i]))
		}
		sorted = sorted[s:]
		if err := t.writeNode(node); err != nil {
			return nil, err
		}
		out = append(out, Entry{Rect: node.MBR(), Ref: int64(id)})
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
