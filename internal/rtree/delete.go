package rtree

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Delete removes one data entry matching (rect, ref) exactly. It returns
// ErrNotFound when no such entry exists. Underfull nodes are condensed:
// the node is dissolved and its entries are reinserted at their level, as
// in Guttman's original CondenseTree.
func (t *Tree) Delete(r geom.Rect, ref int64) error {
	if t.root == storage.InvalidPageID {
		return ErrNotFound
	}
	ctx := &deleteCtx{}
	found, _, err := t.deleteAt(t.root, t.height-1, r, ref, ctx)
	if err != nil {
		return err
	}
	if !found {
		return ErrNotFound
	}
	t.size--

	// Shrink the root while it is an internal node with a single child.
	for {
		root, err := t.ReadNode(t.root)
		if err != nil {
			return err
		}
		if root.IsLeaf() {
			if len(root.Entries) == 0 && t.size == 0 {
				if err := t.freeNode(root.ID); err != nil {
					return err
				}
				t.root = storage.InvalidPageID
				t.height = 0
			}
			break
		}
		if len(root.Entries) != 1 {
			break
		}
		child := root.Entries[0].Child()
		if err := t.freeNode(root.ID); err != nil {
			return err
		}
		t.root = child
		t.height--
	}

	// Reinsert orphaned entries from dissolved nodes, deepest levels first
	// so that subtree entries find a tree tall enough to host them.
	for len(ctx.orphans) > 0 {
		// Pick the orphan with the highest level first.
		best := 0
		for i := 1; i < len(ctx.orphans); i++ {
			if ctx.orphans[i].level > ctx.orphans[best].level {
				best = i
			}
		}
		o := ctx.orphans[best]
		ctx.orphans = append(ctx.orphans[:best], ctx.orphans[best+1:]...)
		if err := t.reinsertOrphan(o); err != nil {
			return err
		}
	}
	return t.writeMeta()
}

// DeletePoint removes one point record.
func (t *Tree) DeletePoint(p geom.Point, ref int64) error {
	return t.Delete(p.Rect(), ref)
}

type deleteCtx struct {
	orphans []pendingInsert
}

// deleteAt removes (r, ref) from the subtree rooted at page id. It returns
// whether the entry was found and the node's resulting MBR.
func (t *Tree) deleteAt(id storage.PageID, level int, r geom.Rect, ref int64, ctx *deleteCtx) (bool, geom.Rect, error) {
	// readNodeMut, not ReadNode: n is edited in place below and must never
	// be a shared node-cache decode.
	n, err := t.readNodeMut(id, level)
	if err != nil {
		return false, geom.Rect{}, err
	}
	if n.Level != level {
		return false, geom.Rect{}, fmt.Errorf("rtree: page %d has level %d, expected %d",
			id, n.Level, level)
	}
	if n.IsLeaf() {
		for i := range n.Entries {
			if n.Entries[i].Ref == ref && n.Entries[i].Rect.Equal(r) {
				n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
				if err := t.writeNode(n); err != nil {
					return false, geom.Rect{}, err
				}
				return true, n.MBR(), nil
			}
		}
		return false, geom.Rect{}, nil
	}
	for i := range n.Entries {
		if !n.Entries[i].Rect.Contains(r) {
			continue
		}
		found, childMBR, err := t.deleteAt(n.Entries[i].Child(), level-1, r, ref, ctx)
		if err != nil {
			return false, geom.Rect{}, err
		}
		if !found {
			continue
		}
		child, err := t.ReadNode(n.Entries[i].Child())
		if err != nil {
			return false, geom.Rect{}, err
		}
		if len(child.Entries) < t.cfg.MinEntries {
			// Dissolve the underfull child and orphan its entries.
			for _, e := range child.Entries {
				ctx.orphans = append(ctx.orphans, pendingInsert{entry: e, level: child.Level})
			}
			if err := t.freeNode(child.ID); err != nil {
				return false, geom.Rect{}, err
			}
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
		} else {
			n.Entries[i].Rect = childMBR
		}
		if err := t.writeNode(n); err != nil {
			return false, geom.Rect{}, err
		}
		return true, n.MBR(), nil
	}
	return false, geom.Rect{}, nil
}

// reinsertOrphan puts an orphaned entry (possibly a whole subtree) back
// into the tree at its original level.
func (t *Tree) reinsertOrphan(o pendingInsert) error {
	if t.root == storage.InvalidPageID {
		if o.level == 0 {
			root, err := t.allocNode(0)
			if err != nil {
				return err
			}
			root.Entries = append(root.Entries, o.entry)
			if err := t.writeNode(root); err != nil {
				return err
			}
			t.root = root.ID
			t.height = 1
			return nil
		}
		// A subtree orphan becomes the root itself: the orphan entry was
		// destined for a node at level o.level, so it references a node at
		// level o.level-1, which as root gives height o.level.
		t.root = o.entry.Child()
		t.height = o.level
		return nil
	}
	if o.level > t.height {
		return fmt.Errorf("rtree: orphan level %d exceeds tree height %d", o.level, t.height)
	}
	if o.level == t.height {
		// The orphan needs a host node one level above the current root:
		// grow the tree with a new root holding the old root and the
		// orphan's subtree side by side.
		rootMBR, err := t.Bounds()
		if err != nil {
			return err
		}
		newRoot, err := t.allocNode(t.height)
		if err != nil {
			return err
		}
		newRoot.Entries = []Entry{
			{Rect: rootMBR, Ref: int64(t.root)},
			o.entry,
		}
		if err := t.writeNode(newRoot); err != nil {
			return err
		}
		t.root = newRoot.ID
		t.height++
		return nil
	}
	return t.insertWithReinserts(o.entry, o.level)
}
