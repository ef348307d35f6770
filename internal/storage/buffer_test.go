package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// newTestPool creates a pool over a MemFile pre-filled with n pages whose
// first byte equals their page id.
func newTestPool(t *testing.T, n, capacity, pageSize int) *BufferPool {
	t.Helper()
	f := NewMemFile(pageSize)
	for i := 0; i < n; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, pageSize)
		buf[0] = byte(id)
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return NewBufferPool(f, capacity)
}

func TestBufferPoolHitMiss(t *testing.T) {
	p := newTestPool(t, 4, 2, 64)

	// First read of page 0: miss.
	d, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0 {
		t.Fatalf("page 0 content = %d", d[0])
	}
	// Second read: hit.
	if _, err := p.Get(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Reads != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 read 1 hit", st)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	p := newTestPool(t, 3, 2, 64)
	mustGet := func(id PageID) {
		t.Helper()
		d, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if d[0] != byte(id) {
			t.Fatalf("page %d content = %d", id, d[0])
		}
	}
	mustGet(0) // miss, cache {0}
	mustGet(1) // miss, cache {1,0}
	mustGet(0) // hit, cache {0,1}
	mustGet(2) // miss, evicts 1 (LRU), cache {2,0}
	mustGet(0) // hit
	mustGet(1) // miss again (was evicted)
	st := p.Stats()
	if st.Reads != 4 {
		t.Errorf("Reads = %d, want 4", st.Reads)
	}
	if st.Hits != 2 {
		t.Errorf("Hits = %d, want 2", st.Hits)
	}
	if st.Evictions < 1 {
		t.Errorf("Evictions = %d, want >= 1", st.Evictions)
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	p := newTestPool(t, 2, 0, 64)
	for i := 0; i < 5; i++ {
		if _, err := p.Get(0); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Reads != 5 || st.Hits != 0 {
		t.Fatalf("zero-capacity stats = %+v, want 5 reads 0 hits", st)
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d, want 0", p.Len())
	}
}

func TestBufferPoolWriteThrough(t *testing.T) {
	p := newTestPool(t, 2, 2, 64)
	buf := make([]byte, 64)
	buf[0] = 0xEE
	if err := p.Write(1, buf); err != nil {
		t.Fatal(err)
	}
	// The write must be visible through the pool...
	d, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0xEE {
		t.Fatal("write not visible via pool")
	}
	// ...and on the backing file (write-through).
	raw := make([]byte, 64)
	if err := p.File().ReadPage(1, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 0xEE {
		t.Fatal("write did not reach backing file")
	}
	st := p.Stats()
	if st.Writes != 1 {
		t.Errorf("Writes = %d, want 1", st.Writes)
	}
	// Cached by the write, so the Get above was a hit.
	if st.Hits != 1 || st.Reads != 0 {
		t.Errorf("stats = %+v, want cached write (1 hit, 0 reads)", st)
	}
}

func TestBufferPoolWriteUpdatesCachedCopy(t *testing.T) {
	p := newTestPool(t, 2, 2, 64)
	if _, err := p.Get(0); err != nil { // cache page 0
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	buf[0] = 0x55
	if err := p.Write(0, buf); err != nil {
		t.Fatal(err)
	}
	d, err := p.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if d[0] != 0x55 {
		t.Fatal("stale cached copy after write")
	}
}

func TestBufferPoolInvalidate(t *testing.T) {
	p := newTestPool(t, 2, 2, 64)
	if _, err := p.Get(0); err != nil {
		t.Fatal(err)
	}
	p.Invalidate(0)
	if _, err := p.Get(0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Reads != 2 {
		t.Errorf("Reads = %d, want 2 (invalidate must force re-read)", st.Reads)
	}
	p.Invalidate(12345) // absent id: no-op
}

func TestBufferPoolClearAndReset(t *testing.T) {
	p := newTestPool(t, 3, 3, 64)
	for id := PageID(0); id < 3; id++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	p.Clear()
	if p.Len() != 0 {
		t.Errorf("Len after Clear = %d", p.Len())
	}
	p.ResetStats()
	if st := p.Stats(); st != (IOStats{}) {
		t.Errorf("stats after reset = %+v", st)
	}
}

func TestBufferPoolResize(t *testing.T) {
	p := newTestPool(t, 4, 4, 64)
	for id := PageID(0); id < 4; id++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	p.Resize(1)
	if p.Len() != 1 {
		t.Errorf("Len after shrink = %d, want 1", p.Len())
	}
	if p.Capacity() != 1 {
		t.Errorf("Capacity = %d", p.Capacity())
	}
	// The survivor must be the most recently used page (3).
	if _, err := p.Get(3); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Errorf("expected MRU page to survive shrink; stats = %+v", st)
	}
}

func TestBufferPoolRandomizedAgainstDirectFile(t *testing.T) {
	// Model check: pool reads must always return exactly what an uncached
	// reader sees, across interleaved reads, writes, invalidations, resets
	// and clears and any capacity, and Len and Stats must be what a plain
	// list model of each shard's replacement policy predicts.
	const pages, pageSize = 16, 32
	rng := rand.New(rand.NewSource(99))
	for _, policy := range Policies() {
		for _, shards := range []int{1, 8} {
			for _, capacity := range []int{0, 1, 3, 16, 64} {
				f := NewMemFile(pageSize)
				shadow := make([][]byte, pages)
				for i := 0; i < pages; i++ {
					if _, err := f.Allocate(); err != nil {
						t.Fatal(err)
					}
					shadow[i] = make([]byte, pageSize)
				}
				p := NewShardedBufferPool(f, capacity, shards, policy)
				m := newPoolModel(capacity, shards, policy)
				for op := 0; op < 3000; op++ {
					id := PageID(rng.Intn(pages))
					switch r := rng.Intn(12); {
					case r < 4: // write
						buf := make([]byte, pageSize)
						rng.Read(buf)
						if err := p.Write(id, buf); err != nil {
							t.Fatal(err)
						}
						copy(shadow[id], buf)
						m.write(id)
					case r == 4:
						p.Invalidate(id)
						m.invalidate(id)
					case r == 5 && rng.Intn(10) == 0:
						p.ResetStats()
						m.stats = IOStats{}
					case r == 5 && rng.Intn(10) == 0:
						p.Clear()
						for i := range m.shards {
							m.shards[i].pages = nil
							clear(m.shards[i].referenced)
						}
					default: // read
						d, err := p.Get(id)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(d, shadow[id]) {
							t.Fatalf("%v shards=%d capacity=%d op=%d page=%d: pool content diverged",
								policy, shards, capacity, op, id)
						}
						m.read(id)
					}
					if p.Len() != m.len() || p.Stats() != m.stats {
						t.Fatalf("%v shards=%d capacity=%d op=%d: Len %d Stats %v, model %d %v",
							policy, shards, capacity, op, p.Len(), p.Stats(), m.len(), m.stats)
					}
				}
				if st := p.Stats(); st.Reads+st.Hits == 0 {
					t.Fatal("no reads recorded")
				}
			}
		}
	}
}

// poolModel is the pool's replacement behaviour written as plainly as
// possible: per shard, a slice of resident pages, most recent first.
type poolModel struct {
	policy Policy
	shards []modelShard
	stats  IOStats
}

type modelShard struct {
	capacity   int
	pages      []PageID
	referenced map[PageID]bool
}

func newPoolModel(capacity, shards int, policy Policy) *poolModel {
	m := &poolModel{policy: policy, shards: make([]modelShard, shards)}
	for i := range m.shards {
		m.shards[i] = modelShard{capacity: capacity / shards, referenced: map[PageID]bool{}}
		if i < capacity%shards {
			m.shards[i].capacity++
		}
	}
	return m
}

func (m *poolModel) shard(id PageID) *modelShard { return &m.shards[int(id)%len(m.shards)] }

func (m *poolModel) len() int {
	n := 0
	for _, s := range m.shards {
		n += len(s.pages)
	}
	return n
}

func (m *poolModel) read(id PageID) {
	s := m.shard(id)
	if slices.Contains(s.pages, id) {
		m.stats.Hits++
		m.touch(s, id)
		return
	}
	m.stats.Reads++
	m.admit(s, id)
}

func (m *poolModel) write(id PageID) {
	m.stats.Writes++
	s := m.shard(id)
	if slices.Contains(s.pages, id) {
		m.touch(s, id)
		return
	}
	m.admit(s, id)
}

func (m *poolModel) invalidate(id PageID) {
	s := m.shard(id)
	s.pages = slices.DeleteFunc(s.pages, func(p PageID) bool { return p == id })
	delete(s.referenced, id)
}

func (m *poolModel) touch(s *modelShard, id PageID) {
	switch m.policy {
	case LRU:
		s.pages = slices.DeleteFunc(s.pages, func(p PageID) bool { return p == id })
		s.pages = slices.Insert(s.pages, 0, id)
	case Clock:
		s.referenced[id] = true
	}
}

// admit puts a page at the front and evicts from the back past capacity;
// CLOCK first moves referenced pages from the back to the front, clearing
// their bit.
func (m *poolModel) admit(s *modelShard, id PageID) {
	if s.capacity == 0 {
		return
	}
	s.pages = slices.Insert(s.pages, 0, id)
	for len(s.pages) > s.capacity {
		last := s.pages[len(s.pages)-1]
		if m.policy == Clock && s.referenced[last] {
			s.referenced[last] = false
			s.pages = slices.Insert(s.pages[:len(s.pages)-1], 0, last)
			continue
		}
		s.pages = s.pages[:len(s.pages)-1]
		delete(s.referenced, last)
		m.stats.Evictions++
	}
}

// TestBufferPoolRejectedIDs: an id the file refuses — negative, past the
// end, far past it — returns the file's error from View, Get and Write and
// leaves no trace in the pool: not in Len, not in any page table's size.
func TestBufferPoolRejectedIDs(t *testing.T) {
	for _, shards := range []int{1, 8} {
		f := NewMemFile(64)
		fillPages(t, f, 20)
		p := NewShardedBufferPool(f, 16, shards, LRU)
		for id := PageID(0); id < 10; id++ {
			if _, err := p.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		slots := func() int {
			n := 0
			for _, s := range p.shards {
				n += len(s.pages.slots)
			}
			return n
		}
		wantLen, wantSlots := p.Len(), slots()
		for _, id := range []PageID{-1, 20, 1 << 40} {
			if err := p.View(id, func([]byte) error { return nil }); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("shards=%d View(%d) err = %v, want %v", shards, id, err, ErrPageOutOfRange)
			}
			if _, err := p.Get(id); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("shards=%d Get(%d) err = %v, want %v", shards, id, err, ErrPageOutOfRange)
			}
			if err := p.Write(id, make([]byte, 64)); !errors.Is(err, ErrPageOutOfRange) {
				t.Errorf("shards=%d Write(%d) err = %v, want %v", shards, id, err, ErrPageOutOfRange)
			}
			if p.Len() != wantLen || slots() != wantSlots {
				t.Fatalf("shards=%d after id %d: Len %d slots %d, want %d %d",
					shards, id, p.Len(), slots(), wantLen, wantSlots)
			}
		}
		for id := PageID(0); id < 10; id++ {
			data, err := p.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPage(id, data); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestPageTableBoundedByCapacity: scanning a file of 100,000 pages through
// a 64-page pool never grows its page table past 256 slots; the table
// follows the resident pages, not the ids. And the 64 consecutive ids a
// scan leaves resident do not form one run of occupied slots, which each
// eviction's backward shift would walk to its end.
func TestPageTableBoundedByCapacity(t *testing.T) {
	const pages = 100_000
	f := NewMemFile(16)
	for i := 0; i < pages; i++ {
		if _, err := f.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 8} {
		p := NewShardedBufferPool(f, 64, shards, LRU)
		for id := PageID(0); id < pages; id++ {
			if _, err := p.Get(id); err != nil {
				t.Fatal(err)
			}
		}
		slots, longest := 0, 0
		for _, s := range p.shards {
			slots += len(s.pages.slots)
			run := 0
			for _, e := range append(s.pages.slots, s.pages.slots...) { // runs may wrap
				if e == nil {
					run = 0
					continue
				}
				run++
				longest = max(longest, run)
			}
		}
		if slots > 256 || p.Len() != 64 {
			t.Fatalf("shards=%d: %d slots for %d resident pages, want at most 256 for 64", shards, slots, p.Len())
		}
		if longest > 8 {
			t.Fatalf("shards=%d: a run of %d occupied slots among 64 consecutive resident ids", shards, longest)
		}
	}
}

// TestPageTableAgainstMap drives the page table alone with random
// inserts, lookups and deletions against a map, on dense, strided and
// crowded ids, so long probe runs and backward shifts across the end of
// the slice are exercised.
func TestPageTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, stride := range []uint64{1, 3, 8} {
		// crowded ids have the last slot of a 64-slot table as their home,
		// and one of the last two slots of a 128-slot one.
		probe := pageTable{slots: make([]*bufEntry, 64), shift: 64 - 6, stride: stride}
		var crowded []PageID
		for id := PageID(0); len(crowded) < 16; id += PageID(stride) {
			if probe.home(id) == 63 {
				crowded = append(crowded, id)
			}
		}
		for _, spread := range []int64{40, 1 << 12} {
			tab := pageTable{stride: stride}
			want := map[PageID]*bufEntry{}
			for op := 0; op < 20000; op++ {
				id := PageID(rng.Int63n(spread))
				if rng.Intn(2) == 0 {
					id = crowded[rng.Intn(len(crowded))]
				}
				e := tab.get(id)
				if e != want[id] {
					t.Fatalf("stride %d op %d: get(%d) = %v, map has %v", stride, op, id, e, want[id])
				}
				switch {
				case e == nil && len(want) < 48:
					e = &bufEntry{id: id}
					tab.put(e)
					want[id] = e
				case e != nil && rng.Intn(3) > 0:
					tab.remove(id)
					delete(want, id)
				}
				if tab.n != len(want) {
					t.Fatalf("stride %d op %d: n = %d, map has %d", stride, op, tab.n, len(want))
				}
			}
			for id, e := range want {
				if tab.get(id) != e {
					t.Fatalf("stride %d: page %d lost", stride, id)
				}
			}
			if len(tab.slots) > 128 {
				t.Fatalf("stride %d: %d slots for at most 48 pages", stride, len(tab.slots))
			}
		}
	}
}
