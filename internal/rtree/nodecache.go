package rtree

import (
	"sync"
	"sync/atomic"

	"repro/internal/storage"
)

// NodeCache is a sharded LRU cache of decoded nodes, keyed by page id and
// sitting above the buffer pool: a hit hands back an already-decoded *Node
// and skips BufferPool.View, decodeNode and the entry allocation entirely.
// It trades exact disk-access accounting for speed, so it is opt-in
// (Tree.SetNodeCache); hits and misses are counted separately from the
// pool's counters, keeping the paper's access numbers honest.
//
// Consistency contract: cached nodes are immutable. Query paths treat a
// *Node from ReadNode as read-only (they already had to — decoded nodes
// are shared between concurrent readers), while the mutating paths (insert,
// delete, reinsertion) decode into their own nodes via readNodeMut and every
// writeNode/freeNode invalidates the page's cache entry. Tree mutation is
// single-goroutine by the Tree's own contract; concurrent readers during
// read-only use see a consistent cache because Get/Add take the shard lock.
type NodeCache struct {
	shards []nodeCacheShard
	mask   uint64
	hits   atomic.Int64
	misses atomic.Int64
}

// CacheStats counts decoded-node cache lookups.
type CacheStats struct {
	Hits, Misses int64
}

// Sub returns the counter deltas since an earlier snapshot.
func (s CacheStats) Sub(prev CacheStats) CacheStats {
	return CacheStats{Hits: s.Hits - prev.Hits, Misses: s.Misses - prev.Misses}
}

// Lookups returns the total number of cache consultations.
func (s CacheStats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns Hits / Lookups, 0 when the cache was never consulted.
func (s CacheStats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

type nodeCacheShard struct {
	mu       sync.Mutex
	capacity int
	entries  map[storage.PageID]*nodeCacheEntry
	// Intrusive LRU list: head is most recently used, tail the eviction
	// victim.
	head, tail *nodeCacheEntry
}

type nodeCacheEntry struct {
	node       *Node
	prev, next *nodeCacheEntry
}

// NewNodeCache returns a cache holding up to capacity decoded nodes, split
// over the given number of lock-striped shards (rounded up to a power of
// two; values < 1 mean one shard). Each shard holds capacity/shards nodes,
// at least one.
func NewNodeCache(capacity, shards int) *NodeCache {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := capacity / n
	if per < 1 {
		per = 1
	}
	c := &NodeCache{shards: make([]nodeCacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].capacity = per
		c.shards[i].entries = make(map[storage.PageID]*nodeCacheEntry, per)
	}
	return c
}

func (c *NodeCache) shardFor(id storage.PageID) *nodeCacheShard {
	return &c.shards[uint64(id)&c.mask]
}

// Get returns the cached node for a page id, counting the lookup. The
// returned node is shared and must be treated as read-only.
func (c *NodeCache) Get(id storage.PageID) (*Node, bool) {
	s := c.shardFor(id)
	s.mu.Lock()
	e, ok := s.entries[id]
	var n *Node
	if ok {
		s.moveToFront(e)
		n = e.node // under the lock: Add replaces an entry's node in place
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return n, true
}

// Add caches a freshly decoded node, evicting the shard's LRU entry when
// the shard is full. The caller must not mutate n afterwards.
func (c *NodeCache) Add(n *Node) {
	s := c.shardFor(n.ID)
	s.mu.Lock()
	if e, ok := s.entries[n.ID]; ok {
		e.node = n
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	if len(s.entries) >= s.capacity {
		victim := s.tail
		s.unlink(victim)
		delete(s.entries, victim.node.ID)
	}
	e := &nodeCacheEntry{node: n}
	s.entries[n.ID] = e
	s.pushFront(e)
	s.mu.Unlock()
}

// Invalidate drops the cache entry for a page id, if present. Every write
// to a node page (writeNode, freeNode) must invalidate, so a reader after
// the write decodes the new bytes.
func (c *NodeCache) Invalidate(id storage.PageID) {
	s := c.shardFor(id)
	s.mu.Lock()
	if e, ok := s.entries[id]; ok {
		s.unlink(e)
		delete(s.entries, id)
	}
	s.mu.Unlock()
}

// Clear drops every cached node (the node-level analogue of dropping the
// buffer pool's pages). Counters are unaffected; see ResetStats.
func (c *NodeCache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[storage.PageID]*nodeCacheEntry, s.capacity)
		s.head, s.tail = nil, nil
		s.mu.Unlock()
	}
}

// ResetStats zeroes the hit/miss counters.
func (c *NodeCache) ResetStats() {
	c.hits.Store(0)
	c.misses.Store(0)
}

// Stats snapshots the hit/miss counters.
func (c *NodeCache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}

// Len returns the number of cached nodes.
func (c *NodeCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.entries)
		s.mu.Unlock()
	}
	return total
}

// Capacity returns the total node capacity over all shards.
func (c *NodeCache) Capacity() int {
	total := 0
	for i := range c.shards {
		total += c.shards[i].capacity
	}
	return total
}

func (s *nodeCacheShard) pushFront(e *nodeCacheEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *nodeCacheShard) unlink(e *nodeCacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *nodeCacheShard) moveToFront(e *nodeCacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
