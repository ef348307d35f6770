package storage

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Policy names a page replacement policy. The paper (following Leutenegger
// & Lopez, ICDE 1998) uses LRU throughout, and LRU is the only policy a
// BufferPool implements.
type Policy int

// LRU evicts the least recently used page (the paper's policy).
const LRU Policy = 0

// BufferPool is a write-through page cache in front of a PageFile, using
// LRU replacement.
//
// The experimental setup of the paper dedicates an LRU buffer of B pages to
// each query, split as B/2 pages per R-tree; a capacity of zero disables
// caching entirely so every page read is a disk access. BufferPool counts
// hits, misses (reads), writes and evictions; the miss counter is the
// paper's "disk accesses" metric. Each shard keeps its own counters,
// atomic and beside its mutex, so a hit writes only the cache line its
// shard's lock already holds; Stats sums them, exact however many
// goroutines hammer the pool.
//
// The pool is split into one or more lock-striped shards (pages map to
// shards by page id). The default single shard is an exact global LRU and
// reproduces the paper's replacement behaviour byte for byte; sharded
// pools (NewShardedBufferPool) trade exact global LRU for per-shard LRU so
// that concurrent readers do not serialize on one mutex. A shard finds a
// resident page in an open-addressed table sized by the pages it holds,
// never by the file: a pool's memory is O(capacity) however large the
// file it caches.
//
// BufferPool is safe for concurrent use, with one caveat: Get returns the
// pooled page slice for efficiency, and that slice may be evicted and
// reused by a concurrent pool call. Single-goroutine callers may treat the
// slice as read-only until their next pool call (the historical contract);
// concurrent readers must use View, which runs the callback while the
// shard lock pins the page.
type BufferPool struct {
	file   PageFile
	shards []*bufShard

	// capacity is the total across shards. Each shard derives its own
	// share from it under its own lock (Resize), so no lock is held while
	// another is taken.
	capacity atomic.Int64
}

// bufShard is one lock stripe: an independent replacement domain over the
// pages that hash to it.
type bufShard struct {
	pool *BufferPool
	mu   sync.Mutex
	// The shard's share of the pool's counters. They change under mu and
	// are atomic only so Stats and ResetStats need no lock.
	hits, reads, writes, evictions atomic.Int64

	capacity int
	pages    pageTable
	// Intrusive LRU list: head is most recently used, tail least.
	head, tail *bufEntry
	// free keeps evicted entries for reuse to avoid re-allocating page
	// buffers under churn.
	free *bufEntry
}

type bufEntry struct {
	id         PageID
	data       []byte
	prev, next *bufEntry
}

// NewBufferPool wraps file with an LRU cache of the given capacity
// (in pages). A capacity of 0 turns the pool into a pure pass-through
// counter.
func NewBufferPool(file PageFile, capacity int) *BufferPool {
	return NewShardedBufferPool(file, capacity, 1, LRU)
}

// NewShardedBufferPool wraps file with a page cache striped over the given
// number of shards. Pages map to shards by page id; the total capacity is
// distributed as evenly as possible across shards, each an independent
// replacement domain. One shard is the exact global LRU of the paper's
// setup; more shards reduce lock contention for parallel queries at the
// cost of an approximate global LRU (per-shard miss counts can deviate
// slightly from the single-shard pool on the same access sequence). The
// policy must be LRU.
func NewShardedBufferPool(file PageFile, capacity, shards int, policy Policy) *BufferPool {
	if shards < 1 {
		panic(fmt.Sprintf("storage: buffer pool needs at least one shard, got %d", shards))
	}
	if policy != LRU {
		panic(fmt.Sprintf("storage: unknown replacement policy %d", int(policy)))
	}
	b := &BufferPool{
		file:   file,
		shards: make([]*bufShard, shards),
	}
	for i := range b.shards {
		b.shards[i] = &bufShard{pool: b, pages: pageTable{stride: uint64(shards)}}
	}
	b.Resize(capacity)
	return b
}

// shardFor maps a page id to its lock stripe.
func (b *BufferPool) shardFor(id PageID) *bufShard {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	return b.shards[uint64(id)%uint64(len(b.shards))]
}

// Shards returns the number of lock stripes.
func (b *BufferPool) Shards() int { return len(b.shards) }

// File returns the underlying page file.
func (b *BufferPool) File() PageFile { return b.file }

// Capacity returns the pool capacity in pages (total across shards).
func (b *BufferPool) Capacity() int { return int(b.capacity.Load()) }

// PageSize returns the page size of the underlying file.
func (b *BufferPool) PageSize() int { return b.file.PageSize() }

// Allocate appends a fresh page to the underlying file.
func (b *BufferPool) Allocate() (PageID, error) {
	return b.file.Allocate()
}

// Get returns the contents of page id, reading it from the file on a miss.
// The returned slice is owned by the pool: read-only, valid until the next
// pool call from any goroutine. Concurrent readers must use View instead,
// which keeps the page pinned while the callback runs.
func (b *BufferPool) Get(id PageID) ([]byte, error) {
	var out []byte
	err := b.shardFor(id).view(id, func(data []byte) error {
		out = data
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// View calls fn with the contents of page id while the page is pinned by
// its shard lock, reading it from the file on a miss. The slice is only
// valid for the duration of fn; fn must treat it as read-only and must not
// call back into the pool (self-deadlock). This is the concurrency-safe
// read path: unlike Get, the data cannot be evicted and reused by another
// goroutine while fn runs.
func (b *BufferPool) View(id PageID, fn func(data []byte) error) error {
	return b.shardFor(id).view(id, fn)
}

func (s *bufShard) view(id PageID, fn func(data []byte) error) error {
	b := s.pool
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.pages.get(id); e != nil {
		s.hits.Add(1)
		s.moveToFront(e)
		return fn(e.data)
	}
	s.reads.Add(1)
	e := s.takeFree()
	if err := b.file.ReadPage(id, e.data); err != nil {
		s.putFree(e)
		return err
	}
	if s.capacity == 0 {
		// Pass-through: use a scratch entry kept on the free list.
		err := fn(e.data)
		s.putFree(e)
		return err
	}
	e.id = id
	s.insertFront(e)
	s.pages.put(e)
	s.evictOverflow()
	return fn(e.data)
}

// Write stores buf as the contents of page id, write-through to the file,
// and refreshes the cached copy if present (or caches it when capacity
// allows).
func (b *BufferPool) Write(id PageID, buf []byte) error {
	s := b.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := b.file.WritePage(id, buf); err != nil {
		return err
	}
	s.writes.Add(1)
	if s.capacity == 0 {
		return nil
	}
	if e := s.pages.get(id); e != nil {
		copy(e.data, buf)
		s.moveToFront(e)
		return nil
	}
	e := s.takeFree()
	copy(e.data, buf)
	e.id = id
	s.insertFront(e)
	s.pages.put(e)
	s.evictOverflow()
	return nil
}

// Invalidate drops page id from the cache (used when a page is freed).
func (b *BufferPool) Invalidate(id PageID) {
	s := b.shardFor(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.pages.get(id); e != nil {
		s.unlink(e)
		s.pages.remove(id)
		s.putFree(e)
	}
}

// Clear empties the cache without touching the statistics.
func (b *BufferPool) Clear() {
	for _, s := range b.shards {
		s.mu.Lock()
		for e := s.head; e != nil; e = s.head {
			s.unlink(e)
			s.putFree(e)
		}
		s.pages.clear()
		s.mu.Unlock()
	}
}

// Resize changes the total capacity, evicting LRU pages if shrinking.
//
// The total is stored first; then each shard, under its own lock and no
// other, takes its share of the total it loads there: the first
// total%shards shards get one extra page. A shard's last update comes
// after the last store, so concurrent Resize calls settle on the last
// total stored.
func (b *BufferPool) Resize(capacity int) {
	if capacity < 0 {
		panic(fmt.Sprintf("storage: negative buffer capacity %d", capacity))
	}
	b.capacity.Store(int64(capacity))
	n := len(b.shards)
	for i, s := range b.shards {
		s.mu.Lock()
		total := int(b.capacity.Load())
		s.capacity = total / n
		if i < total%n {
			s.capacity++
		}
		s.evictOverflow()
		s.mu.Unlock()
	}
}

// Len returns the number of cached pages.
func (b *BufferPool) Len() int {
	n := 0
	for _, s := range b.shards {
		s.mu.Lock()
		n += s.pages.n
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters, summed over the shards. Each
// counter is individually exact under concurrency; the snapshot as a whole
// is not a point-in-time cut while other goroutines are mid-operation.
func (b *BufferPool) Stats() IOStats {
	var st IOStats
	for _, s := range b.shards {
		st = st.Add(IOStats{
			Reads:     s.reads.Load(),
			Writes:    s.writes.Load(),
			Hits:      s.hits.Load(),
			Evictions: s.evictions.Load(),
		})
	}
	return st
}

// ResetStats zeroes the counters (cache contents are preserved).
func (b *BufferPool) ResetStats() {
	for _, s := range b.shards {
		s.reads.Store(0)
		s.writes.Store(0)
		s.hits.Store(0)
		s.evictions.Store(0)
	}
}

// locked shard helpers ------------------------------------------------------

func (s *bufShard) takeFree() *bufEntry {
	if e := s.free; e != nil {
		s.free = e.next
		e.next = nil
		return e
	}
	return &bufEntry{data: make([]byte, s.pool.file.PageSize())}
}

func (s *bufShard) putFree(e *bufEntry) {
	e.prev = nil
	e.id = InvalidPageID
	e.next = s.free
	s.free = e
}

func (s *bufShard) insertFront(e *bufEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *bufShard) unlink(e *bufEntry) {
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

func (s *bufShard) moveToFront(e *bufEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.insertFront(e)
}

func (s *bufShard) evictOverflow() {
	for s.pages.n > s.capacity {
		victim := s.tail
		if victim == nil {
			return
		}
		s.unlink(victim)
		s.pages.remove(victim.id)
		s.evictions.Add(1)
		s.putFree(victim)
	}
}

// pageTable maps the page ids resident in one shard to their entries: open
// addressing over a power-of-two slice, linear probing, backward-shift
// deletion (no tombstones). The ids of a shard are congruent modulo the
// pool's shard count, so id / stride numbers them densely, and a
// Fibonacci hash of that number picks the home slot. Hashing matters: a
// pool's resident pages are often a run of consecutive ids (a build
// writing pages in order, a scan), and with the number itself as the
// home they would fill one unbroken run of slots that every deletion's
// backward shift walks to its end. The table doubles when an insertion
// would fill more than half of it and never shrinks, so its size follows
// the pages the shard has held at once (at most its largest capacity plus
// the one page inserted before an eviction), never the file's page count.
type pageTable struct {
	slots  []*bufEntry
	n      int
	shift  uint   // 64 - log2(len(slots))
	stride uint64 // the pool's shard count
}

// minPageTableSlots is the size of a table's first allocation.
const minPageTableSlots = 8

func (t *pageTable) home(id PageID) uint64 {
	k := uint64(id)
	if t.stride > 1 {
		k /= t.stride
	}
	return k * 0x9E3779B97F4A7C15 >> t.shift
}

// slot returns the index of page id's slot or, if the page is not
// resident, of the empty slot that ends its probe run.
func (t *pageTable) slot(id PageID) uint64 {
	mask := uint64(len(t.slots) - 1)
	i := t.home(id)
	for t.slots[i] != nil && t.slots[i].id != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns the entry of page id, or nil if the page is not resident.
func (t *pageTable) get(id PageID) *bufEntry {
	if t.n == 0 {
		return nil
	}
	return t.slots[t.slot(id)]
}

// put inserts e, whose page must not be resident.
func (t *pageTable) put(e *bufEntry) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = make([]*bufEntry, max(2*len(old), minPageTableSlots))
		t.shift = uint(64 - bits.TrailingZeros(uint(len(t.slots))))
		for _, o := range old {
			if o != nil {
				t.slots[t.slot(o.id)] = o
			}
		}
	}
	t.slots[t.slot(e.id)] = e
	t.n++
}

// remove deletes page id, which must be resident. Each entry after the
// hole in the probe run moves back into it unless the hole lies before
// the entry's home slot, so every remaining entry stays reachable from
// its home.
func (t *pageTable) remove(id PageID) {
	mask := uint64(len(t.slots) - 1)
	hole := t.slot(id)
	for i := (hole + 1) & mask; t.slots[i] != nil; i = (i + 1) & mask {
		if (i-t.home(t.slots[i].id))&mask >= (i-hole)&mask {
			t.slots[hole] = t.slots[i]
			hole = i
		}
	}
	t.slots[hole] = nil
	t.n--
}

// clear empties the table and keeps its slots.
func (t *pageTable) clear() {
	clear(t.slots)
	t.n = 0
}
