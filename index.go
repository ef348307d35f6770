package cpq

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Point is a point of the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle.
type Rect = geom.Rect

// Neighbor is a nearest-neighbor query result.
type Neighbor struct {
	// Point is the data point.
	Point Point
	// Ref is the record id supplied at insertion.
	Ref int64
	// Dist is the distance from the query point.
	Dist float64
}

// IOStats exposes the storage counters of an index's buffer pool. Reads
// are buffer misses — the paper's "disk accesses".
type IOStats = storage.IOStats

// NodeCacheStats exposes the hit/miss counters of an index's decoded-node
// cache (see WithNodeCache).
type NodeCacheStats = rtree.CacheStats

// Index is one spatial data set stored in a disk-based R*-tree behind an
// LRU buffer pool. An Index is not safe for concurrent mutation.
type Index struct {
	tree *rtree.Tree
	pool *storage.BufferPool
	file storage.PageFile
	disk *storage.DiskFile // nil for in-memory indexes
}

type indexConfig struct {
	pageSize       int
	maxEntries     int
	minEntries     int
	bufferPages    int
	bufferShards   int
	nodeCacheNodes int
	path           string
	bulkFill       float64
}

// IndexOption configures NewIndex / BuildIndex / OpenIndex.
type IndexOption func(*indexConfig) error

// WithPageSize sets the page size in bytes (default 1024, the paper's).
func WithPageSize(bytes int) IndexOption {
	return func(c *indexConfig) error {
		if bytes <= 0 {
			return fmt.Errorf("cpq: invalid page size %d", bytes)
		}
		c.pageSize = bytes
		return nil
	}
}

// WithNodeCapacity sets the R*-tree node capacity M and minimum occupancy
// m (defaults 21 and 7, the paper's).
func WithNodeCapacity(max, min int) IndexOption {
	return func(c *indexConfig) error {
		c.maxEntries, c.minEntries = max, min
		return nil
	}
}

// WithBufferPages sets the index's LRU buffer capacity in pages
// (default 128). Zero disables caching so every page read is a disk
// access, the paper's B=0 configuration.
func WithBufferPages(pages int) IndexOption {
	return func(c *indexConfig) error {
		if pages < 0 {
			return fmt.Errorf("cpq: negative buffer size %d", pages)
		}
		c.bufferPages = pages
		return nil
	}
}

// WithBufferShards splits the index's buffer pool into n lock-striped
// shards (default 1). One shard is the paper's exact global LRU; more
// shards let the workers of a parallel query (WithParallelism) read pages
// without serializing on a single mutex, at the cost of per-shard instead
// of global replacement. Counters stay exact either way.
func WithBufferShards(n int) IndexOption {
	return func(c *indexConfig) error {
		if n < 1 {
			return fmt.Errorf("cpq: buffer shards must be >= 1, got %d", n)
		}
		c.bufferShards = n
		return nil
	}
}

// WithNodeCache attaches a decoded-node cache of the given number of
// slots (0, the default, disables it). A cache hit serves an
// already-decoded, immutable node without touching the buffer pool at all,
// which makes repeated traversals of the upper tree levels (the HEAP
// frontier's habit) much cheaper — but it also means cached reads no
// longer appear in IOStats, so experiments reproducing the paper's
// disk-access figures must leave it off. Cache hit/miss counts are
// reported separately (Stats.NodeCacheHits / NodeCacheMisses and
// Index.NodeCacheStats). The cache is direct-mapped: a page has one slot,
// its page id mod the cache size, and a node read into an occupied slot
// replaces the page there. A hit takes no lock, so the workers of a
// parallel query never wait on each other for it. The cache is kept
// consistent by invalidation on every node write.
func WithNodeCache(nodes int) IndexOption {
	return func(c *indexConfig) error {
		if nodes < 0 {
			return fmt.Errorf("cpq: negative node cache size %d", nodes)
		}
		c.nodeCacheNodes = nodes
		return nil
	}
}

// WithPath stores the index in a file on disk instead of in memory.
func WithPath(path string) IndexOption {
	return func(c *indexConfig) error {
		if path == "" {
			return errors.New("cpq: empty index path")
		}
		c.path = path
		return nil
	}
}

// WithBulkLoad makes BuildIndex pack the tree with the STR algorithm at
// the given fill factor (0 < fill <= 1) instead of inserting one point at
// a time. Packed trees are smaller and have less node overlap.
func WithBulkLoad(fill float64) IndexOption {
	return func(c *indexConfig) error {
		if !(fill > 0 && fill <= 1) { // NaN fails here too
			return fmt.Errorf("cpq: bulk fill %g out of (0, 1]", fill)
		}
		c.bulkFill = fill
		return nil
	}
}

func applyOptions(opts []IndexOption) (indexConfig, error) {
	c := indexConfig{pageSize: 1024, bufferPages: 128, bufferShards: 1}
	for _, o := range opts {
		if err := o(&c); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c indexConfig) treeConfig() rtree.Config {
	return rtree.Config{
		PageSize:   c.pageSize,
		MaxEntries: c.maxEntries,
		MinEntries: c.minEntries,
	}
}

// NewIndex creates an empty index.
func NewIndex(opts ...IndexOption) (*Index, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	idx := &Index{}
	if c.path != "" {
		df, err := storage.CreateDiskFile(c.path, c.pageSize)
		if err != nil {
			return nil, err
		}
		idx.file, idx.disk = df, df
	} else {
		idx.file = storage.NewMemFile(c.pageSize)
	}
	idx.pool = storage.NewShardedBufferPool(idx.file, c.bufferPages, c.bufferShards, storage.LRU)
	tree, err := rtree.New(idx.pool, c.treeConfig())
	if err != nil {
		return nil, errors.Join(err, idx.file.Close())
	}
	if c.nodeCacheNodes > 0 {
		tree.SetNodeCache(rtree.NewNodeCache(c.nodeCacheNodes, 0))
	}
	idx.tree = tree
	return idx, nil
}

// BuildIndex creates an index over points, using record ids 0..len-1.
// With WithBulkLoad the tree is STR-packed; otherwise points are inserted
// one at a time through the R* insertion algorithm, as the paper built its
// trees.
func BuildIndex(points []Point, opts ...IndexOption) (*Index, error) {
	c, err := applyOptions(opts)
	if err != nil {
		return nil, err
	}
	idx, err := NewIndex(opts...)
	if err != nil {
		return nil, err
	}
	if c.bulkFill > 0 {
		items := make([]rtree.Item, len(points))
		for i, p := range points {
			items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
		}
		if err := idx.tree.BulkLoad(items, c.bulkFill); err != nil {
			return nil, errors.Join(err, idx.Close())
		}
		return idx, nil
	}
	for i, p := range points {
		if err := idx.tree.InsertPoint(p, int64(i)); err != nil {
			return nil, errors.Join(err, idx.Close())
		}
	}
	return idx, nil
}

// OpenIndex reopens an index previously created with WithPath and flushed
// with Flush or Close.
func OpenIndex(path string, opts ...IndexOption) (*Index, error) {
	c, err := applyOptions(append([]IndexOption{WithPath(path)}, opts...))
	if err != nil {
		return nil, err
	}
	df, err := storage.OpenDiskFile(c.path, c.pageSize)
	if err != nil {
		return nil, err
	}
	pool := storage.NewShardedBufferPool(df, c.bufferPages, c.bufferShards, storage.LRU)
	tree, err := rtree.Open(pool)
	if err != nil {
		return nil, errors.Join(err, df.Close())
	}
	if c.nodeCacheNodes > 0 {
		tree.SetNodeCache(rtree.NewNodeCache(c.nodeCacheNodes, 0))
	}
	return &Index{tree: tree, pool: pool, file: df, disk: df}, nil
}

// Insert adds a point with a caller-chosen record id.
func (i *Index) Insert(p Point, ref int64) error {
	return i.tree.InsertPoint(p, ref)
}

// Delete removes a previously inserted (point, ref) record.
func (i *Index) Delete(p Point, ref int64) error {
	return i.tree.DeletePoint(p, ref)
}

// Len returns the number of indexed points.
func (i *Index) Len() int64 { return i.tree.Len() }

// Height returns the R*-tree height (number of levels).
func (i *Index) Height() int { return i.tree.Height() }

// Bounds returns the MBR of the indexed points.
func (i *Index) Bounds() (Rect, error) { return i.tree.Bounds() }

// Search visits every point inside query; return false to stop early.
func (i *Index) Search(query Rect, fn func(p Point, ref int64) bool) error {
	return i.tree.Search(query, func(it rtree.Item) bool {
		return fn(it.Rect.Min, it.Ref)
	})
}

// Nearest returns the k indexed points closest to p in ascending distance
// order.
func (i *Index) Nearest(p Point, k int) ([]Neighbor, error) {
	nn, err := i.tree.NearestNeighbors(p, k)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(nn))
	for t, n := range nn {
		out[t] = Neighbor{Point: n.Rect.Min, Ref: n.Ref, Dist: n.Dist}
	}
	return out, nil
}

// SetBufferPages resizes the index's LRU buffer. The paper's joins give
// each tree half of the total buffer B. A negative count is an error and
// leaves the buffer as it was.
func (i *Index) SetBufferPages(pages int) error {
	if pages < 0 {
		return fmt.Errorf("cpq: negative buffer size %d", pages)
	}
	i.pool.Resize(pages)
	return nil
}

// DropCaches empties the buffer pool and the decoded-node cache (if one is
// attached), so following reads hit "disk".
func (i *Index) DropCaches() {
	i.pool.Clear()
	if c := i.tree.NodeCache(); c != nil {
		c.Clear()
	}
}

// ResetIOStats zeroes the access counters (including the node-cache
// hit/miss counters when a cache is attached).
func (i *Index) ResetIOStats() {
	i.pool.ResetStats()
	if c := i.tree.NodeCache(); c != nil {
		c.ResetStats()
	}
}

// IOStats returns the index's storage counters since the last reset.
func (i *Index) IOStats() IOStats { return i.pool.Stats() }

// NodeCacheStats returns the decoded-node cache's hit/miss counters since
// the last reset (zero when WithNodeCache was not used).
func (i *Index) NodeCacheStats() NodeCacheStats { return i.tree.NodeCacheStats() }

// CheckInvariants validates the underlying tree structure (testing and
// tooling aid).
func (i *Index) CheckInvariants() error { return i.tree.CheckInvariants() }

// Flush persists the tree header; for on-disk indexes it also syncs the
// file.
func (i *Index) Flush() error {
	if err := i.tree.Flush(); err != nil {
		return err
	}
	if i.disk != nil {
		return i.disk.Sync()
	}
	return nil
}

// Close flushes and releases the index.
func (i *Index) Close() error {
	if err := i.Flush(); err != nil {
		return errors.Join(err, i.file.Close())
	}
	return i.file.Close()
}
