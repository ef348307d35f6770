package rtree

import (
	"sync/atomic"

	"repro/internal/storage"
)

// NodeCache is a direct-mapped cache of decoded nodes, keyed by page id and
// sitting above the buffer pool: a hit hands back an already-decoded *Node
// and skips BufferPool.View, decodeNode and the entry allocation entirely.
// It trades exact disk-access accounting for speed, so it is opt-in
// (Tree.SetNodeCache); hits and misses are counted separately from the
// pool's counters, keeping the paper's access numbers honest.
//
// A page has one slot, its id mod the capacity, and a slot holds one node:
// a node added to an occupied slot replaces whatever page was there. A hit
// is one atomic load and an id compare, so concurrent readers never wait on
// each other; the policy gives up LRU's choice of victim for that.
//
// Consistency contract: cached nodes are immutable, and are published
// whole through the slot's atomic pointer. Query paths treat a *Node from
// ReadNode as read-only (they already had to — decoded nodes are shared
// between concurrent readers), while the mutating paths (insert, delete,
// reinsertion) decode into their own nodes via readNodeMut and every
// writeNode/freeNode invalidates the page's slot. Tree mutation is
// single-goroutine by the Tree's own contract.
type NodeCache struct {
	slots  []atomic.Pointer[Node]
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

// NewNodeCache returns a cache of exactly capacity slots (values < 1 mean
// one). shards is ignored: a hit takes no lock, so there is nothing to
// stripe. It stays in the signature for the callers that pass one.
func NewNodeCache(capacity, shards int) *NodeCache {
	if capacity < 1 {
		capacity = 1
	}
	return &NodeCache{slots: make([]atomic.Pointer[Node], capacity)}
}

func (c *NodeCache) slot(id storage.PageID) *atomic.Pointer[Node] {
	return &c.slots[uint64(id)%uint64(len(c.slots))]
}

// Get returns the cached node for a page id, counting the lookup. The
// returned node is shared and must be treated as read-only.
func (c *NodeCache) Get(id storage.PageID) (*Node, bool) {
	if n := c.slot(id).Load(); n != nil && n.ID == id {
		c.hits.Add(1)
		return n, true
	}
	c.misses.Add(1)
	return nil, false
}

// Add caches a freshly decoded node in its page's slot, replacing the
// slot's previous node. The caller must not mutate n afterwards.
func (c *NodeCache) Add(n *Node) { c.slot(n.ID).Store(n) }

// Invalidate drops the cached node of a page id, if its slot holds it; a
// node of another page in the same slot stays. Every write to a node page
// (writeNode, freeNode) must invalidate, so a reader after the write
// decodes the new bytes.
func (c *NodeCache) Invalidate(id storage.PageID) {
	s := c.slot(id)
	if n := s.Load(); n != nil && n.ID == id {
		s.CompareAndSwap(n, nil)
	}
}

// Clear drops every cached node (the node-level analogue of dropping the
// buffer pool's pages). Counters are unaffected; see ResetStats.
func (c *NodeCache) Clear() {
	for i := range c.slots {
		c.slots[i].Store(nil)
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

// Len returns the number of cached nodes, counting the occupied slots.
func (c *NodeCache) Len() int {
	n := 0
	for i := range c.slots {
		if c.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Capacity returns the number of slots.
func (c *NodeCache) Capacity() int { return len(c.slots) }
