package rtree

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Insert adds a data record with the given MBR (a degenerate rectangle for
// a point) and record id. Duplicate rectangles and refs are allowed.
func (t *Tree) Insert(r geom.Rect, ref int64) error {
	if !r.Valid() {
		return fmt.Errorf("rtree: invalid rectangle %v", r)
	}
	if t.root == storage.InvalidPageID {
		root, err := t.allocNode(0)
		if err != nil {
			return err
		}
		root.Entries = append(root.Entries, Entry{Rect: r, Ref: ref})
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = root.ID
		t.height = 1
		t.size = 1
		return t.writeMeta()
	}
	if err := t.insertWithReinserts(Entry{Rect: r, Ref: ref}, 0); err != nil {
		return err
	}
	t.size++
	return t.writeMeta()
}

// InsertPoint adds a point record.
func (t *Tree) InsertPoint(p geom.Point, ref int64) error {
	return t.Insert(p.Rect(), ref)
}

// insertCtx carries per-insertion state: which levels already performed a
// forced reinsert (R* allows one per level per data insertion), as a bit
// per level, and the queue of entries awaiting reinsertion. The Tree owns
// one and resets it for each insertion, so the queue's array is reused.
// 64 levels bound the mask; a tree with fan-out at least 2 never gets near.
type insertCtx struct {
	reinserted uint64
	pending    []pendingInsert
}

// insertWithReinserts inserts e at level, then drains the forced-reinsert
// queue that insertion fills. The queue is walked by index: a reinsert can
// append to it while it is being walked.
func (t *Tree) insertWithReinserts(e Entry, level int) error {
	ctx := &t.ins
	ctx.reinserted, ctx.pending = 0, ctx.pending[:0]
	if err := t.insertEntry(e, level, ctx); err != nil {
		return err
	}
	for i := 0; i < len(ctx.pending); i++ {
		p := ctx.pending[i]
		if err := t.insertEntry(p.entry, p.level, ctx); err != nil {
			return err
		}
	}
	return nil
}

type pendingInsert struct {
	entry Entry
	level int
}

// insertEntry routes one entry to a node at targetLevel, growing the root
// if the root itself splits.
func (t *Tree) insertEntry(e Entry, targetLevel int, ctx *insertCtx) error {
	rootMBR, split, err := t.insertAt(t.root, t.height-1, e, targetLevel, ctx)
	if err != nil {
		return err
	}
	if split == nil {
		return nil
	}
	// The root split: grow the tree by one level.
	newRoot, err := t.allocNode(t.height)
	if err != nil {
		return err
	}
	newRoot.Entries = []Entry{
		{Rect: rootMBR, Ref: int64(t.root)},
		*split,
	}
	if err := t.writeNode(newRoot); err != nil {
		return err
	}
	t.root = newRoot.ID
	t.height++
	return nil
}

// insertAt descends from the node at page id (which sits at the given
// level) towards targetLevel, inserts e there, and unwinds any overflow
// treatment. It returns the node's resulting MBR and, if the node was
// split, the entry describing its new sibling.
func (t *Tree) insertAt(id storage.PageID, level int, e Entry, targetLevel int, ctx *insertCtx) (geom.Rect, *Entry, error) {
	// readNodeMut, not ReadNode: n is edited in place below and must never
	// be a shared node-cache decode.
	n, err := t.readNodeMut(id, level)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	if n.Level != level {
		return geom.Rect{}, nil, fmt.Errorf("rtree: page %d has level %d, expected %d",
			id, n.Level, level)
	}
	if level == targetLevel {
		n.Entries = append(n.Entries, e)
	} else {
		i := chooseSubtree(n, e.Rect, targetLevel)
		childMBR, split, err := t.insertAt(n.Entries[i].Child(), level-1, e, targetLevel, ctx)
		if err != nil {
			return geom.Rect{}, nil, err
		}
		n.Entries[i].Rect = childMBR
		if split != nil {
			n.Entries = append(n.Entries, *split)
		}
	}
	if len(n.Entries) <= t.cfg.MaxEntries {
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		return n.MBR(), nil, nil
	}
	return t.overflowTreatment(n, ctx)
}

// overflowTreatment applies the R* policy to a node holding M+1 entries:
// the first overflow on a non-root level during one insertion triggers a
// forced reinsert; any other overflow splits the node.
func (t *Tree) overflowTreatment(n *Node, ctx *insertCtx) (geom.Rect, *Entry, error) {
	p := int(t.cfg.ReinsertFraction * float64(t.cfg.MaxEntries))
	isRoot := n.ID == t.root
	if bit := uint64(1) << n.Level; !isRoot && p > 0 && ctx.reinserted&bit == 0 {
		ctx.reinserted |= bit
		removed := removeFarthest(n, p)
		if err := t.writeNode(n); err != nil {
			return geom.Rect{}, nil, err
		}
		for _, e := range removed {
			ctx.pending = append(ctx.pending, pendingInsert{entry: e, level: n.Level})
		}
		return n.MBR(), nil, nil
	}
	sibling, err := t.splitNode(n)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	return n.MBR(), &Entry{Rect: sibling.MBR(), Ref: int64(sibling.ID)}, nil
}

// removeFarthest removes from n the p entries whose rectangle centers are
// farthest from the center of n's MBR and returns them ordered closest
// first ("close reinsert", the variant Beckmann et al. found best).
func removeFarthest(n *Node, p int) []Entry {
	if p >= len(n.Entries) {
		p = len(n.Entries) - 1
	}
	center := n.MBR().Center()
	type distEntry struct {
		d float64
		e Entry
	}
	des := make([]distEntry, len(n.Entries))
	for i, e := range n.Entries {
		des[i] = distEntry{d: center.DistSq(e.Rect.Center()), e: e}
	}
	sort.Slice(des, func(i, j int) bool { return des[i].d < des[j].d })
	keep := des[:len(des)-p]
	out := des[len(des)-p:]
	n.Entries = n.Entries[:0]
	for _, de := range keep {
		n.Entries = append(n.Entries, de.e)
	}
	removed := make([]Entry, 0, p)
	for _, de := range out { // closest of the removed ones first
		removed = append(removed, de.e)
	}
	return removed
}

// chooseSubtree implements the R* descent rule: when the children are at
// the insertion target level's parent boundary (i.e. we are choosing the
// final node), minimize overlap enlargement with ties broken by area
// enlargement then area; higher up, minimize area enlargement with ties
// broken by area.
func chooseSubtree(n *Node, r geom.Rect, targetLevel int) int {
	if n.Level == targetLevel+1 {
		return chooseLeastOverlapEnlargement(n, r)
	}
	return chooseLeastAreaEnlargement(n, r)
}

func chooseLeastAreaEnlargement(n *Node, r geom.Rect) int {
	best := 0
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// chooseLeastOverlapEnlargement returns the entry whose overlap with its
// siblings grows least when it is enlarged to cover r, ties broken by
// area enlargement, then area, then the lower index. It computes the
// exhaustive O(M²) choice exactly, but stops summing a candidate's
// overlap enlargement once the candidate can no longer win: every term
// OverlapArea(enlarged, j) - OverlapArea(entry, j) is non-negative or NaN
// (the enlarged rectangle contains the entry, OverlapArea is monotone in
// its operands, and rounding is monotone), so the partial sum only grows
// or turns NaN. Once it exceeds the best sum, or equals it while the
// candidate loses the enlargement and area tie-breaks, the full sum would
// not have been installed either. Candidates are visited in index order
// and each sum is accumulated in the same order whether or not it is cut
// short, so a finished sum is bit for bit the exhaustive one.
func chooseLeastOverlapEnlargement(n *Node, r geom.Rect) int {
	best := 0
	bestOverlap := overlapEnlargement(n, 0, r)
	bestEnl := n.Entries[0].Rect.Enlargement(r)
	bestArea := n.Entries[0].Rect.Area()
	for i := 1; i < len(n.Entries); i++ {
		enl := n.Entries[i].Rect.Enlargement(r)
		area := n.Entries[i].Rect.Area()
		winsTie := enl < bestEnl || (enl == bestEnl && area < bestArea)
		orig := n.Entries[i].Rect
		enlarged := orig.Union(r)
		var ov float64
		for j := range n.Entries {
			if ov > bestOverlap || (ov == bestOverlap && !winsTie) {
				break // lost: the test below rejects the partial sum too
			}
			if j == i {
				continue
			}
			// An enlarged overlap of 0 implies the original one is 0, and
			// adding 0 - 0 leaves the sum as it is.
			if a := enlarged.OverlapArea(n.Entries[j].Rect); a != 0 {
				ov += a - orig.OverlapArea(n.Entries[j].Rect)
			}
		}
		if ov < bestOverlap || (ov == bestOverlap && winsTie) {
			best, bestOverlap, bestEnl, bestArea = i, ov, enl, area
		}
	}
	return best
}

// overlapEnlargement returns how much the total overlap between entry i and
// its siblings grows if entry i is enlarged to also cover r.
func overlapEnlargement(n *Node, i int, r geom.Rect) float64 {
	enlarged := n.Entries[i].Rect.Union(r)
	var delta float64
	for j := range n.Entries {
		if j == i {
			continue
		}
		delta += enlarged.OverlapArea(n.Entries[j].Rect) -
			n.Entries[i].Rect.OverlapArea(n.Entries[j].Rect)
	}
	return delta
}
