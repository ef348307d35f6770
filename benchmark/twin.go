package main

import (
	"errors"
	"path/filepath"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// pageSize is the facade's default page size, which every workload keeps.
const pageSize = 1024

// twin is a tree built from a workload's points exactly as the facade
// builds its index — same page file kind, pool, node cache and load path —
// but with the layers in reach, for the probes the facade hides.
type twin struct {
	tree  *rtree.Tree
	pool  *storage.BufferPool
	file  storage.PageFile
	items []rtree.Item // in record-id order
}

type twins struct{ p, q *twin }

func pointItems(pts []geom.Point) []rtree.Item {
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	return items
}

func buildTwin(w workload, pts []geom.Point, path string) (*twin, error) {
	t := &twin{items: pointItems(pts)}
	pages := w.bufferPages
	if w.disk {
		df, err := storage.CreateDiskFile(path, pageSize)
		if err != nil {
			return nil, err
		}
		t.file, pages = df, buildBufferPages
	} else {
		t.file = storage.NewMemFile(pageSize)
	}
	t.pool = storage.NewShardedBufferPool(t.file, pages, w.bufferShards, storage.LRU)
	err := func() error {
		var err error
		if t.tree, err = rtree.New(t.pool, rtree.DefaultConfig()); err != nil {
			return err
		}
		if w.nodeCache > 0 {
			t.tree.SetNodeCache(rtree.NewNodeCache(w.nodeCache, w.bufferShards))
		}
		if w.bulkFill > 0 {
			// BulkLoad sorts its argument; keep items in id order.
			if err := t.tree.BulkLoad(append([]rtree.Item(nil), t.items...), w.bulkFill); err != nil {
				return err
			}
		} else {
			for i, p := range pts {
				if err := t.tree.InsertPoint(p, int64(i)); err != nil {
					return err
				}
			}
		}
		return t.tree.Flush()
	}()
	if err != nil {
		return nil, errors.Join(err, t.file.Close())
	}
	if w.disk {
		// What Close + OpenIndex(WithBufferPages) leaves: the small pool,
		// empty.
		t.pool.Resize(w.bufferPages)
		t.pool.Clear()
	}
	return t, nil
}

func buildTwins(cfg config, in inputs) (*twins, error) {
	p, err := buildTwin(cfg.w, in.p, filepath.Join(cfg.dir, "twinP.idx"))
	if err != nil {
		return nil, err
	}
	q, err := buildTwin(cfg.w, in.q, filepath.Join(cfg.dir, "twinQ.idx"))
	if err != nil {
		return nil, errors.Join(err, p.file.Close())
	}
	return &twins{p, q}, nil
}

func (t *twins) close() error {
	return errors.Join(t.p.file.Close(), t.q.file.Close())
}

// dropCaches is Index.DropCaches on the twins.
func (t *twins) dropCaches() {
	for _, tw := range []*twin{t.p, t.q} {
		tw.pool.Clear()
		if c := tw.tree.NodeCache(); c != nil {
			c.Clear()
		}
	}
}
