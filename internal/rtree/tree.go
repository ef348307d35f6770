package rtree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Config fixes the physical parameters of a tree. The defaults reproduce
// the experimental setup of the paper: 1 KB pages giving an R*-tree node
// capacity of M = 21 with minimum occupancy m = M/3 = 7 (a reasonable
// choice according to Beckmann et al.).
type Config struct {
	// PageSize is the page size in bytes. Default 1024.
	PageSize int
	// MaxEntries is the node capacity M. Default 21. It must fit the page.
	MaxEntries int
	// MinEntries is the minimum occupancy m, 2 <= m <= M/2. Default M/3.
	MinEntries int
	// ReinsertFraction is the share of entries removed on the first
	// overflow per level per insertion (the R* "p" parameter).
	// Default 0.30.
	ReinsertFraction float64
}

// DefaultConfig returns the paper's physical setup.
func DefaultConfig() Config {
	return Config{PageSize: 1024, MaxEntries: 21, MinEntries: 7, ReinsertFraction: 0.30}
}

func (c *Config) fillDefaults() {
	if c.PageSize == 0 {
		c.PageSize = 1024
	}
	if c.MaxEntries == 0 {
		c.MaxEntries = 21
		if fit := maxEntriesForPage(c.PageSize); fit < 21 {
			c.MaxEntries = fit
		}
	}
	if c.MinEntries == 0 {
		c.MinEntries = c.MaxEntries / 3
		if c.MinEntries < 2 {
			c.MinEntries = 2
		}
	}
	if c.ReinsertFraction == 0 {
		c.ReinsertFraction = 0.30
	}
}

func (c Config) validate() error {
	if c.PageSize < nodeHeaderSize+2*entrySize {
		return fmt.Errorf("rtree: page size %d too small", c.PageSize)
	}
	if c.MaxEntries < 4 {
		return fmt.Errorf("rtree: MaxEntries %d < 4", c.MaxEntries)
	}
	if c.MaxEntries > maxEntriesForPage(c.PageSize) {
		return fmt.Errorf("rtree: MaxEntries %d does not fit page size %d (max %d)",
			c.MaxEntries, c.PageSize, maxEntriesForPage(c.PageSize))
	}
	if c.MinEntries < 2 || c.MinEntries > c.MaxEntries/2 {
		return fmt.Errorf("rtree: MinEntries %d out of range [2, %d]",
			c.MinEntries, c.MaxEntries/2)
	}
	if c.ReinsertFraction < 0 || c.ReinsertFraction > 0.45 {
		return fmt.Errorf("rtree: ReinsertFraction %g out of range [0, 0.45]",
			c.ReinsertFraction)
	}
	return nil
}

// Item is a data record stored in the tree: the object's MBR plus the
// caller's record id.
type Item struct {
	Rect geom.Rect
	Ref  int64
}

// Tree is a disk-based R*-tree. A Tree is not safe for concurrent mutation;
// concurrent read-only use is safe if the underlying pool is.
type Tree struct {
	pool *storage.BufferPool
	cfg  Config

	meta     storage.PageID
	root     storage.PageID
	height   int   // number of levels; 0 for an empty tree
	size     int64 // number of data entries
	freeHead storage.PageID

	scratch []byte // page-size encode buffer

	// cache, when non-nil, is the decoded-node cache consulted by ReadNode
	// (see NodeCache for the consistency contract). nil by default: the
	// cache changes which reads reach the buffer pool, so the paper's
	// disk-access experiments leave it off.
	cache *NodeCache

	// tracer, when non-nil, receives cache hit/miss events from ReadNode.
	// Set it before concurrent use (same set-before-use contract as
	// SetNodeCache); nil — the default — costs one pointer comparison.
	tracer obs.Tracer
}

// ErrNotFound is returned by operations that reference a missing record.
var ErrNotFound = errors.New("rtree: entry not found")

// metaMagic identifies a tree meta page.
var metaMagic = [8]byte{'R', 'T', 'm', 'e', 't', 'a', '0', '1'}

// New creates an empty tree on pool. The pool's page file must be empty;
// page 0 becomes the tree's meta page.
func New(pool *storage.BufferPool, cfg Config) (*Tree, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if pool.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("rtree: pool page size %d != config page size %d",
			pool.PageSize(), cfg.PageSize)
	}
	if pool.File().NumPages() != 0 {
		return nil, errors.New("rtree: New requires an empty page file")
	}
	metaID, err := pool.Allocate()
	if err != nil {
		return nil, err
	}
	t := &Tree{
		pool:     pool,
		cfg:      cfg,
		meta:     metaID,
		root:     storage.InvalidPageID,
		freeHead: storage.InvalidPageID,
		scratch:  make([]byte, cfg.PageSize),
	}
	if err := t.writeMeta(); err != nil {
		return nil, err
	}
	return t, nil
}

// Open loads an existing tree from pool (page 0 must be its meta page).
func Open(pool *storage.BufferPool) (*Tree, error) {
	buf, err := pool.Get(0)
	if err != nil {
		return nil, fmt.Errorf("rtree: read meta page: %w", err)
	}
	var magic [8]byte
	copy(magic[:], buf)
	if magic != metaMagic {
		return nil, fmt.Errorf("rtree: page 0 is not a tree meta page")
	}
	cfg := Config{
		PageSize:   int(binary.LittleEndian.Uint32(buf[8:])),
		MaxEntries: int(binary.LittleEndian.Uint32(buf[12:])),
		MinEntries: int(binary.LittleEndian.Uint32(buf[16:])),
	}
	cfg.ReinsertFraction = float64(binary.LittleEndian.Uint32(buf[20:])) / 1e6
	if cfg.PageSize != pool.PageSize() {
		return nil, fmt.Errorf("rtree: stored page size %d != pool page size %d",
			cfg.PageSize, pool.PageSize())
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &Tree{
		pool:     pool,
		cfg:      cfg,
		meta:     0,
		root:     storage.PageID(int64(binary.LittleEndian.Uint64(buf[24:]))),
		height:   int(int64(binary.LittleEndian.Uint64(buf[32:]))),
		size:     int64(binary.LittleEndian.Uint64(buf[40:])),
		freeHead: storage.PageID(int64(binary.LittleEndian.Uint64(buf[48:]))),
		scratch:  make([]byte, cfg.PageSize),
	}
	return t, nil
}

// writeMeta persists the tree header to the meta page.
func (t *Tree) writeMeta() error {
	buf := t.scratch
	for i := range buf {
		buf[i] = 0
	}
	copy(buf, metaMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], uint32(t.cfg.PageSize))
	binary.LittleEndian.PutUint32(buf[12:], uint32(t.cfg.MaxEntries))
	binary.LittleEndian.PutUint32(buf[16:], uint32(t.cfg.MinEntries))
	binary.LittleEndian.PutUint32(buf[20:], uint32(t.cfg.ReinsertFraction*1e6))
	binary.LittleEndian.PutUint64(buf[24:], uint64(int64(t.root)))
	binary.LittleEndian.PutUint64(buf[32:], uint64(int64(t.height)))
	binary.LittleEndian.PutUint64(buf[40:], uint64(t.size))
	binary.LittleEndian.PutUint64(buf[48:], uint64(int64(t.freeHead)))
	return t.pool.Write(t.meta, buf)
}

// Flush persists the tree header; node pages are written through as they
// change, so after Flush the page file is a complete image of the tree.
func (t *Tree) Flush() error { return t.writeMeta() }

// Config returns the tree's physical configuration.
func (t *Tree) Config() Config { return t.cfg }

// Pool returns the tree's buffer pool (the instrument that counts the
// paper's disk accesses).
func (t *Tree) Pool() *storage.BufferPool { return t.pool }

// Len returns the number of data entries.
func (t *Tree) Len() int64 { return t.size }

// Height returns the number of levels (0 for an empty tree; 1 when the
// root is a leaf). The paper's h=4 / h=5 configurations correspond to
// Height() == 4 and 5.
func (t *Tree) Height() int { return t.height }

// RootID returns the page id of the root node, or storage.InvalidPageID
// for an empty tree.
func (t *Tree) RootID() storage.PageID { return t.root }

// Bounds returns the MBR of the whole data set (the root MBR), or an empty
// rectangle for an empty tree.
func (t *Tree) Bounds() (geom.Rect, error) {
	if t.root == storage.InvalidPageID {
		return geom.EmptyRect(), nil
	}
	root, err := t.ReadNode(t.root)
	if err != nil {
		return geom.Rect{}, err
	}
	return root.MBR(), nil
}

// SetNodeCache attaches (or, with nil, detaches) a decoded-node cache that
// ReadNode consults before the buffer pool. The cache must not be shared
// between trees. Attaching clears the cache so it cannot serve nodes from
// a previous attachment.
func (t *Tree) SetNodeCache(c *NodeCache) {
	if c != nil {
		c.Clear()
	}
	t.cache = c
}

// NodeCache returns the attached decoded-node cache, nil when none is.
func (t *Tree) NodeCache() *NodeCache { return t.cache }

// SetTracer attaches (or, with nil, detaches) a tracer receiving cache
// hit/miss events from ReadNode. The events carry no span id: node reads
// outlive any single query span, and the tree does not know which query a
// read belongs to. Like SetNodeCache, set it before concurrent readers
// start.
func (t *Tree) SetTracer(tr obs.Tracer) { t.tracer = tr }

// traceCacheEvent emits a decoded-node cache lookup outcome; the nil
// guard keeps the untraced ReadNode path allocation-free.
func (t *Tree) traceCacheEvent(kind obs.EventKind, id storage.PageID) {
	if t.tracer == nil {
		return
	}
	t.tracer.Event(obs.Event{Kind: kind, N: int64(id)})
}

// NodeCacheStats snapshots the attached cache's hit/miss counters (zero
// when no cache is attached).
func (t *Tree) NodeCacheStats() CacheStats {
	if t.cache == nil {
		return CacheStats{}
	}
	return t.cache.Stats()
}

// ReadNode fetches and decodes the node stored at page id. With a node
// cache attached a hit returns the already-decoded node and touches no
// page at all; otherwise each call goes through the buffer pool and
// therefore counts as a page access on a miss. Decoding happens under the
// pool's shard lock (BufferPool.View), so ReadNode is safe for concurrent
// readers: the decoded Node owns its entries, never aliases the pooled
// page buffer, and is treated as immutable by every read path (the
// mutating paths use readNodeMut).
func (t *Tree) ReadNode(id storage.PageID) (*Node, error) {
	c := t.cache
	if c != nil {
		if n, ok := c.Get(id); ok {
			t.traceCacheEvent(obs.EvCacheHit, id)
			return n, nil
		}
		t.traceCacheEvent(obs.EvCacheMiss, id)
	}
	n, err := t.readNodeMut(id)
	if err != nil {
		return nil, err
	}
	if c != nil {
		c.Add(n)
	}
	return n, nil
}

// ReadNodeInto is ReadNode into a node the caller owns: dst is overwritten
// with the node stored at page id, reusing dst's entry slice, so a caller
// that keeps one Node per traversal slot reads without allocating. The
// page access is the same as ReadNode's — decoded under BufferPool.View,
// counted the same, validated the same — and dst is private to the caller:
// it aliases neither the page buffer nor a cached node, so the caller may
// reorder its entries. With a node cache attached the lookup, the miss
// fill and the hit/miss counters are ReadNode's, and dst receives a copy
// of the shared node.
func (t *Tree) ReadNodeInto(id storage.PageID, dst *Node) error {
	if t.cache != nil {
		n, err := t.ReadNode(id)
		if err != nil {
			return err
		}
		dst.ID, dst.Level = n.ID, n.Level
		dst.Entries = append(dst.Entries[:0], n.Entries...)
		return nil
	}
	return t.pool.View(id, func(buf []byte) error {
		return decodeNodeInto(id, buf, dst)
	})
}

// readNodeMut fetches and decodes a private copy of the node stored at
// page id, bypassing the node cache in both directions. The mutating paths
// (insert, delete, reinsertion) use it so in-place edits never touch a
// cached — and therefore shared and immutable — node.
func (t *Tree) readNodeMut(id storage.PageID) (*Node, error) {
	var n *Node
	err := t.pool.View(id, func(buf []byte) error {
		var derr error
		n, derr = decodeNode(id, buf)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return n, nil
}

// writeNode encodes and stores a node at its page, invalidating any cached
// decode of the page. Every page write goes through here, which makes it
// the one place the leaf order (LeafOrdered) is maintained: a leaf's
// entries are put in it, in place, before they are encoded.
func (t *Tree) writeNode(n *Node) error {
	if n.IsLeaf() {
		OrderLeaf(n.Entries)
	}
	if err := encodeNode(n, t.scratch); err != nil {
		return err
	}
	if err := t.pool.Write(n.ID, t.scratch); err != nil {
		return err
	}
	if t.cache != nil {
		t.cache.Invalidate(n.ID)
	}
	return nil
}

// Free-page layout: magic "Fr" at offset 0, next free page id at offset 8.
// Freed node pages form a singly-linked list headed by Tree.freeHead so
// deletions do not leak pages.
const (
	freeMagic0 = 'F'
	freeMagic1 = 'r'
)

// allocNode creates a node at the given level on a recycled or fresh page.
func (t *Tree) allocNode(level int) (*Node, error) {
	if t.freeHead != storage.InvalidPageID {
		id := t.freeHead
		buf, err := t.pool.Get(id)
		if err != nil {
			return nil, err
		}
		if buf[0] != freeMagic0 || buf[1] != freeMagic1 {
			return nil, fmt.Errorf("rtree: free-list page %d is not free", id)
		}
		t.freeHead = storage.PageID(int64(binary.LittleEndian.Uint64(buf[8:])))
		return &Node{ID: id, Level: level}, nil
	}
	id, err := t.pool.Allocate()
	if err != nil {
		return nil, err
	}
	return &Node{ID: id, Level: level}, nil
}

// freeNode returns a node page to the tree's free list.
func (t *Tree) freeNode(id storage.PageID) error {
	buf := t.scratch
	for i := range buf {
		buf[i] = 0
	}
	buf[0], buf[1] = freeMagic0, freeMagic1
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(t.freeHead)))
	if err := t.pool.Write(id, buf); err != nil {
		return err
	}
	if t.cache != nil {
		t.cache.Invalidate(id)
	}
	t.freeHead = id
	return nil
}

// Search visits every data entry whose rectangle intersects query, invoking
// fn for each. Traversal stops early when fn returns false.
func (t *Tree) Search(query geom.Rect, fn func(Item) bool) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	_, err := t.search(t.root, query, fn)
	return err
}

func (t *Tree) search(id storage.PageID, query geom.Rect, fn func(Item) bool) (bool, error) {
	n, err := t.ReadNode(id)
	if err != nil {
		return false, err
	}
	for i := range n.Entries {
		e := n.Entries[i]
		if !e.Rect.Intersects(query) {
			continue
		}
		if n.IsLeaf() {
			if !fn(Item{Rect: e.Rect, Ref: e.Ref}) {
				return false, nil
			}
			continue
		}
		cont, err := t.search(e.Child(), query, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// All visits every data entry in the tree.
func (t *Tree) All(fn func(Item) bool) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	b, err := t.Bounds()
	if err != nil {
		return err
	}
	return t.Search(b, fn)
}

// Walk visits every node of the tree in depth-first order (used by
// integrity checks and tooling).
func (t *Tree) Walk(fn func(n *Node) error) error {
	if t.root == storage.InvalidPageID {
		return nil
	}
	return t.walk(t.root, fn)
}

func (t *Tree) walk(id storage.PageID, fn func(n *Node) error) error {
	n, err := t.ReadNode(id)
	if err != nil {
		return err
	}
	if err := fn(n); err != nil {
		return err
	}
	if n.IsLeaf() {
		return nil
	}
	for i := range n.Entries {
		if err := t.walk(n.Entries[i].Child(), fn); err != nil {
			return err
		}
	}
	return nil
}
