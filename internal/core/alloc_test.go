package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// bulkTree bulk-loads pts into a tree whose pool holds every page, so a
// query on it is all buffer hits.
func bulkTree(t testing.TB, pts []geom.Point) *rtree.Tree {
	t.Helper()
	pool := storage.NewBufferPool(storage.NewMemFile(1024), 4096)
	tr, err := rtree.New(pool, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	if err := tr.BulkLoad(items, 1.0); err != nil {
		t.Fatal(err)
	}
	if got := int64(pool.Capacity()); got < pool.File().NumPages() {
		t.Fatalf("pool holds %d pages, file has %d", got, pool.File().NumPages())
	}
	return tr
}

// TestNodePairSize pins the HEAP queue element at 40 bytes: the queue of
// one 100k x 100k query at K = 10⁴ is 582k elements.
func TestNodePairSize(t *testing.T) {
	if got := unsafe.Sizeof(nodePair{}); got > 40 {
		t.Fatalf("nodePair is %d bytes, want <= 40", got)
	}
}

// TestKCPQSteadyStateAllocs is the allocation budget of a warm query: what
// it allocates must not depend on how many nodes it reads or how long its
// queue grows, only on what it returns. After two warm-up queries (the
// first grows the scratch, the second shows it came back from the free
// list) every engine stays within a fixed number of allocations and within
// twice the bytes of its result slice (K pairs of 56 bytes) plus 4 KB of
// per-query bookkeeping — the join, its stats, the result header.
//
// The parallel engine gets a start-up allowance on top, stated below: per
// worker a goroutine, its closure, its join and its first stack growth,
// plus the state the workers share.
func TestKCPQSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates shadow state and randomises scheduling")
	}
	const n = 20000
	ta := bulkTree(t, dataset.Uniform(1801, n))
	tb := bulkTree(t, dataset.Uniform(1802, n))

	const (
		seqAllocs = 16
		seqSlack  = 4 << 10
		// Two workers: each costs a goroutine (its descriptor and stack
		// come from the runtime's own free lists once warm, but a stack
		// that has to grow is a fresh allocation of up to 8 KB), a closure
		// and the join it runs its tasks in; the engine adds the state the
		// workers share and a WaitGroup.
		parAllocs = seqAllocs + 8
		parSlack  = seqSlack + 2*(8<<10)
	)
	par := DefaultOptions(Heap)
	par.Parallelism = 2
	type budget struct {
		allocs uint64
		slack  uint64
	}
	type tcase struct {
		name string
		k    int
		b    budget
		run  func(k int) (int, error)
	}
	var cases []tcase
	add := func(name string, k int, b budget, run func(k int) (int, error)) {
		cases = append(cases, tcase{name, k, b, run})
	}
	bichromatic := func(opts Options) func(k int) (int, error) {
		return func(k int) (int, error) {
			pairs, _, err := KClosestPairs(ta, tb, k, opts)
			return len(pairs), err
		}
	}
	for _, k := range []int{1, 100, 10000} {
		add("heap", k, budget{seqAllocs, seqSlack}, bichromatic(DefaultOptions(Heap)))
	}
	add("heap-par2", 100, budget{parAllocs, parSlack}, bichromatic(par))
	add("std", 100, budget{seqAllocs, seqSlack}, bichromatic(DefaultOptions(SortedDistances)))
	add("self", 100, budget{seqAllocs, seqSlack}, func(k int) (int, error) {
		pairs, _, err := SelfKClosestPairs(ta, k, DefaultOptions(Heap))
		return len(pairs), err
	})

	for _, c := range cases {
		run := func() {
			got, err := c.run(c.k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, c.k, err)
			}
			if got != c.k {
				t.Fatalf("%s k=%d: %d pairs", c.name, c.k, got)
			}
		}
		run()
		run()
		if c.b.allocs != seqAllocs {
			// A worker's scratch has grown its queue and K-heap to their
			// high-water marks only once it has run the task that sets
			// them, and which worker runs which task is up to the
			// scheduler: warm both over more queries.
			for i := 0; i < 8; i++ {
				run()
			}
		}
		// testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures,
		// which is also the free list's bound: fine for the sequential
		// engines, but a two-worker run would lose a scratch per query to
		// it. The parallel case is therefore counted from MemStats alone.
		if c.b.allocs == seqAllocs {
			if allocs := testing.AllocsPerRun(3, run); allocs > seqAllocs {
				t.Errorf("%s k=%d: %.0f allocations per warm query, budget %d", c.name, c.k, allocs, seqAllocs)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		limit := 2*uint64(c.k)*uint64(unsafe.Sizeof(Pair{})) + c.b.slack
		mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s k=%d: %d allocations, %d bytes per warm query (budget %d, %d)",
			c.name, c.k, mallocs, bytes, c.b.allocs, limit)
		if mallocs > c.b.allocs {
			t.Errorf("%s k=%d: %d allocations per warm query, budget %d", c.name, c.k, mallocs, c.b.allocs)
		}
		if bytes > limit {
			t.Errorf("%s k=%d: %d bytes per warm query, budget %d", c.name, c.k, bytes, limit)
		}
	}
}
