package storage

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fillPages allocates n pages stamped with their own id so readers can
// verify they got the right, untorn page.
func fillPages(t testing.TB, f PageFile, n int) {
	t.Helper()
	buf := make([]byte, f.PageSize())
	for i := 0; i < n; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+8 <= len(buf); off += 8 {
			binary.LittleEndian.PutUint64(buf[off:], uint64(id))
		}
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// checkPage verifies every word of a page carries the page's id.
func checkPage(id PageID, data []byte) error {
	for off := 0; off+8 <= len(data); off += 8 {
		if got := binary.LittleEndian.Uint64(data[off:]); got != uint64(id) {
			return fmt.Errorf("page %d word %d = %d (torn or wrong page)", id, off/8, got)
		}
	}
	return nil
}

func TestShardedPoolBasics(t *testing.T) {
	f := NewMemFile(128)
	fillPages(t, f, 64)
	b := NewShardedBufferPool(f, 16, 4, LRU)
	if b.Shards() != 4 {
		t.Fatalf("Shards = %d", b.Shards())
	}
	if b.Capacity() != 16 {
		t.Fatalf("Capacity = %d", b.Capacity())
	}
	for i := 0; i < 64; i++ {
		data, err := b.Get(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPage(PageID(i), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.Len(); got != 16 {
		t.Fatalf("Len = %d, want capacity 16", got)
	}
	s := b.Stats()
	if s.Reads != 64 || s.Hits != 0 || s.Evictions != 48 {
		t.Fatalf("stats = %v", s)
	}
	// All cached pages hit now.
	b.ResetStats()
	var resident []PageID
	for _, sh := range b.shards {
		for _, e := range sh.pages.slots {
			if e != nil {
				resident = append(resident, e.id)
			}
		}
	}
	for _, id := range resident {
		if _, err := b.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if s := b.Stats(); s.Hits != 16 || s.Reads != 0 {
		t.Fatalf("stats after warm reads = %v", s)
	}
}

func TestShardedPoolResizeRedistributes(t *testing.T) {
	f := NewMemFile(64)
	fillPages(t, f, 40)
	b := NewShardedBufferPool(f, 32, 8, LRU)
	for i := 0; i < 40; i++ {
		if _, err := b.Get(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Resize(8)
	if got := b.Len(); got > 8 {
		t.Fatalf("Len after shrink = %d, want <= 8", got)
	}
	if b.Capacity() != 8 {
		t.Fatalf("Capacity = %d", b.Capacity())
	}
	b.Resize(0)
	if got := b.Len(); got != 0 {
		t.Fatalf("Len after resize to 0 = %d", got)
	}
	// Pass-through still works.
	data, err := b.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPage(3, data); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPoolConcurrentStress is the concurrency stress test of the
// sharded pool: many goroutines issue Get/View over a page population
// larger than the pool. Afterwards the atomic counters must balance
// exactly: hits + misses == total requests, and misses - evictions -
// invalidations == resident pages. Run with -race to verify the locking
// discipline (ci.sh does).
func TestShardedPoolConcurrentStress(t *testing.T) {
	const (
		pages      = 512
		workers    = 16
		opsEach    = 4000
		capacity   = 96
		shardCount = 8
	)
	t.Run("LRU", func(t *testing.T) {
		f := NewMemFile(128)
		fillPages(t, f, pages)
		b := NewShardedBufferPool(f, capacity, shardCount, LRU)

		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < opsEach; i++ {
					// Skewed access pattern so shards see both hot
					// (cached) and cold (evicting) pages.
					id := PageID(rng.Intn(pages / 4))
					if i%3 == 0 {
						id = PageID(rng.Intn(pages))
					}
					err := b.View(id, func(data []byte) error {
						return checkPage(id, data)
					})
					if err != nil {
						errs <- err
						return
					}
				}
			}(int64(w + 1))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}

		s := b.Stats()
		total := int64(workers * opsEach)
		if s.Hits+s.Reads != total {
			t.Fatalf("hits %d + misses %d != requests %d", s.Hits, s.Reads, total)
		}
		// Every miss inserts a page; every eviction removes one; no
		// invalidations happened. What remains must be resident.
		if resident := int64(b.Len()); s.Reads-s.Evictions != resident {
			t.Fatalf("misses %d - evictions %d != resident %d (stats %v)",
				s.Reads, s.Evictions, resident, s)
		}
		if got := b.Len(); got > capacity {
			t.Fatalf("resident %d exceeds capacity %d", got, capacity)
		}
	})
}

// TestShardedPoolConcurrentGetUnderView: Get's returned slice is only
// stable for single-goroutine use, but issuing concurrent Gets must at
// least be memory-safe and keep the counters exact; concurrent View must
// never observe torn data even while the same pages are evicted and
// re-read through Get.
func TestShardedPoolConcurrentGetAndView(t *testing.T) {
	const pages = 128
	f := NewMemFile(64)
	fillPages(t, f, pages)
	b := NewShardedBufferPool(f, 16, 4, LRU)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				id := PageID(rng.Intn(pages))
				if err := b.View(id, func(data []byte) error {
					return checkPage(id, data)
				}); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 100))
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				if _, err := b.Get(PageID(rng.Intn(pages))); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 200))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := b.Stats()
	if s.Hits+s.Reads != 8*2000 {
		t.Fatalf("hits %d + misses %d != %d", s.Hits, s.Reads, 8*2000)
	}
}

// TestShardedPoolConcurrentResize runs rounds of concurrent Resize calls,
// one per resizer with a total of its own, while readers and writers keep
// the 4-shard pool busy. Resize holds no lock while it takes a shard's: it
// stores the total, and each shard takes its share of the total it loads
// under its own lock. After each round the pool must have settled on the
// last total stored, which is one of that round's totals, and every shard
// must hold its share of it. Run with -race (ci.sh does).
func TestShardedPoolConcurrentResize(t *testing.T) {
	const (
		pages    = 64
		shards   = 4
		resizers = 4
		rounds   = 300
	)
	f := NewMemFile(64)
	fillPages(t, f, pages)
	b := NewShardedBufferPool(f, 16, shards, LRU)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, f.PageSize())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := PageID(rng.Intn(pages))
				var err error
				switch i % 3 {
				case 0:
					err = b.View(id, func(data []byte) error { return checkPage(id, data) })
				case 1:
					for off := 0; off+8 <= len(buf); off += 8 {
						binary.LittleEndian.PutUint64(buf[off:], uint64(id))
					}
					err = b.Write(id, buf)
				default:
					if n := b.Len(); n > pages {
						err = fmt.Errorf("Len = %d with %d pages in the file", n, pages)
					}
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 300))
	}
	defer func() {
		close(stop)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}()

	for round := 0; round < rounds; round++ {
		// Resizer r stores r + 4·(round%10): no two resizers of a round
		// share a total.
		stored := make(map[int]bool)
		var rw sync.WaitGroup
		for r := 0; r < resizers; r++ {
			total := r + resizers*(round%10)
			stored[total] = true
			rw.Add(1)
			go func() {
				defer rw.Done()
				b.Resize(total)
			}()
		}
		rw.Wait()

		last := b.Capacity()
		if !stored[last] {
			t.Fatalf("round %d: Capacity = %d, not a total of the round %v", round, last, stored)
		}
		sum := 0
		for i, s := range b.shards {
			want := last / shards
			if i < last%shards {
				want++
			}
			s.mu.Lock()
			got := s.capacity
			s.mu.Unlock()
			if got != want {
				t.Fatalf("round %d: shard %d capacity = %d, want %d of total %d", round, i, got, want, last)
			}
			sum += got
		}
		if sum != last {
			t.Fatalf("round %d: shard capacities sum to %d, want %d", round, sum, last)
		}
	}
}
