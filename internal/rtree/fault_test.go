package rtree

import (
	"errors"
	"testing"

	"repro/internal/storage"
)

// TestWriteFaultSweep: every write path of the tree surfaces a page write
// failure. Each operation runs on a fresh tree with exactly one of its
// page writes failing — the N-th, for every N below the number of writes
// the same operation makes on a twin where nothing fails — and must return
// storage.ErrInjected. One write at a time: were every write from the N-th
// on to fail, the header write that ends each insert and delete would
// carry the error out even where an earlier write's error was dropped.
//
// The rows cover every writer. "insert" and "delete" are one plain
// operation each. "split" inserts until the root splits, so leaves and
// inner nodes overflow on the way: a non-root node splits only after its
// level's forced reinsert in the same insertion. "condense" deletes until
// the root shrinks, which dissolves underfull nodes (a freed page each)
// and reinserts their orphans. "bulk load" packs an empty tree, and
// "flush" writes the header alone. The twin's shape before and after
// proves each row took its path.
func TestWriteFaultSweep(t *testing.T) {
	pts := randPoints(7200, 60)
	more := randPoints(7300, 60)
	build := func(filled bool) (*Tree, *storage.FaultFile) {
		ff := storage.NewFaultFile(storage.NewMemFile(256))
		tr, err := New(storage.NewBufferPool(ff, 0), Config{PageSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		if filled {
			insertAll(t, tr, pts)
		}
		return tr, ff
	}
	// shape is a tree's height and node count.
	type shape struct{ height, nodes int }
	shapeOf := func(tr *Tree) shape {
		counts, err := tr.NodeCount()
		if err != nil {
			t.Fatal(err)
		}
		s := shape{height: tr.Height()}
		for _, c := range counts {
			s.nodes += c
		}
		return s
	}
	items := make([]Item, len(more))
	for i, p := range more {
		items[i] = Item{Rect: p.Rect(), Ref: int64(i)}
	}
	ops := []struct {
		name   string
		filled bool // runs on the tree of pts, not an empty one
		run    func(*Tree) error
		// took reports whether the twin's run took the row's write path.
		took func(before, after shape) bool
	}{
		{"insert", true, func(tr *Tree) error {
			return tr.InsertPoint(more[0], int64(len(pts)))
		}, func(before, after shape) bool { return true }},
		{"delete", true, func(tr *Tree) error {
			return tr.DeletePoint(pts[0], 0)
		}, func(before, after shape) bool { return true }},
		{"split", true, func(tr *Tree) error {
			for i, p := range more {
				if err := tr.InsertPoint(p, int64(len(pts)+i)); err != nil {
					return err
				}
			}
			return nil
		}, func(before, after shape) bool { return after.height > before.height && before.height > 1 }},
		{"condense", true, func(tr *Tree) error {
			for i, p := range pts[:50] {
				if err := tr.DeletePoint(p, int64(i)); err != nil {
					return err
				}
			}
			return nil
		}, func(before, after shape) bool { return after.height < before.height && after.nodes < before.nodes }},
		{"bulk load", false, func(tr *Tree) error {
			return tr.BulkLoad(items, 1)
		}, func(before, after shape) bool { return after.height > 2 }},
		{"flush", true, func(tr *Tree) error {
			return tr.Flush()
		}, func(before, after shape) bool { return true }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			twin, _ := build(op.filled)
			before, writesBefore := shapeOf(twin), twin.Pool().Stats().Writes
			if err := op.run(twin); err != nil {
				t.Fatal(err)
			}
			writes := twin.Pool().Stats().Writes - writesBefore
			if after := shapeOf(twin); !op.took(before, after) {
				t.Fatalf("the run did not take its write path: shape %+v -> %+v", before, after)
			}
			if writes == 0 {
				t.Fatal("the run wrote nothing")
			}
			for n := int64(0); n < writes; n++ {
				tr, ff := build(op.filled)
				ff.FailWrite(n)
				if err := op.run(tr); !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("write %d of %d fails: err = %v, want ErrInjected", n, writes, err)
				}
			}
		})
	}
}
