package core

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
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
// A parallel query allocates what the sequential one at the same K does,
// plus at most one goroutine closure per worker, and within 2 % of its
// bytes: the workers' shared state and each worker's join live in the
// scratches. The four-worker case runs at GOMAXPROCS = 2: more workers than
// cores must not cost a fresh scratch per query. The auto case is what the
// facade's default call hands the engine, AutoParallelism, at GOMAXPROCS 2,
// where the 20k-point trees take the task engine. Every case is measured
// over several warm queries. A sequential case must meet its budget on
// each of them. A parallel case is judged by its median: which scratch a
// worker takes is up to the scheduler, so a parallel query now and then
// still grows a worker's queue to a new high-water mark, or a worker
// blocked on a contended lock takes a wait record the runtime has not yet
// cached. Neither is the steady state the budget is about.
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
		// measured is how many warm queries a case is measured over.
		measured = 11
	)
	par := DefaultOptions(Heap)
	par.Parallelism = 2
	par4 := DefaultOptions(Heap)
	par4.Parallelism = 4
	auto := DefaultOptions(Heap)
	auto.Parallelism = AutoParallelism
	type tcase struct {
		name    string
		k       int
		workers int // > 1 for a parallel case, held to the sequential "heap" case at its K
		procs   int // GOMAXPROCS for the case; 0 leaves it
		run     func(k int) (int, error)
	}
	var cases []tcase
	add := func(name string, k int, run func(k int) (int, error)) {
		cases = append(cases, tcase{name: name, k: k, run: run})
	}
	bichromatic := func(opts Options) func(k int) (int, error) {
		return func(k int) (int, error) {
			pairs, _, err := KClosestPairs(ta, tb, k, opts)
			return len(pairs), err
		}
	}
	for _, k := range []int{1, 100, 10000} {
		add("heap", k, bichromatic(DefaultOptions(Heap)))
	}
	add("heap-par2", 100, bichromatic(par))
	cases[len(cases)-1].workers = 2
	add("heap-par4", 100, bichromatic(par4))
	cases[len(cases)-1].workers, cases[len(cases)-1].procs = 4, 2
	add("heap-auto", 100, bichromatic(auto))
	cases[len(cases)-1].workers, cases[len(cases)-1].procs = 2, 2
	add("std", 100, bichromatic(DefaultOptions(SortedDistances)))
	add("self", 100, func(k int) (int, error) {
		pairs, _, err := SelfKClosestPairs(ta, k, DefaultOptions(Heap))
		return len(pairs), err
	})
	// The semi join returns one pair per point of ta.
	add("semi", n, func(int) (int, error) {
		pairs, _, err := SemiClosestPairsBatched(ta, tb, DefaultOptions(Heap))
		return len(pairs), err
	})
	// The range join streams exactly 100 pairs at an eps halfway between
	// the 100th and 101st closest distances.
	top, _, err := KClosestPairs(ta, tb, 101, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	eps := (top[99].Dist + top[100].Dist) / 2
	add("range", 100, func(int) (int, error) {
		streamed := 0
		_, err := WithinDistance(ta, tb, eps, DefaultOptions(Heap), func(Pair) bool {
			streamed++
			return true
		})
		return streamed, err
	})

	type cost struct{ mallocs, bytes uint64 }
	sequential := map[int]cost{} // the "heap" case's measured cost per K
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, c := range cases {
		runtime.GOMAXPROCS(cmp.Or(c.procs, procs))
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
		if c.workers > 1 {
			// A worker's scratch has grown its queue and K-heap to their
			// high-water marks only once it has run the task that sets
			// them, and which worker runs which task is up to the
			// scheduler: warm both over more queries. Each worker
			// goroutine's descriptor comes from the runtime's free lists
			// once they hold enough; fill them first.
			warmGoroutines(256)
			for i := 0; i < 8; i++ {
				run()
			}
		}
		var mallocs, bytes [measured]uint64
		for i := range measured {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			mallocs[i], bytes[i] = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		}
		slices.Sort(mallocs[:])
		slices.Sort(bytes[:])
		got := cost{mallocs[measured-1], bytes[measured-1]} // the largest
		if c.workers > 1 {
			got = cost{mallocs[measured/2], bytes[measured/2]} // the median
		}
		budget := cost{seqAllocs, 2*uint64(c.k)*uint64(unsafe.Sizeof(Pair{})) + seqSlack}
		if c.workers > 1 {
			seq, ok := sequential[c.k]
			if !ok {
				t.Fatalf("%s k=%d: no sequential heap case at this K", c.name, c.k)
			}
			budget = cost{seq.mallocs + uint64(c.workers), seq.bytes + seq.bytes/50}
		} else if c.name == "heap" {
			sequential[c.k] = got
		}
		t.Logf("%s k=%d: %d allocations, %d bytes per warm query (budget %d, %d)",
			c.name, c.k, got.mallocs, got.bytes, budget.mallocs, budget.bytes)
		if got.mallocs > budget.mallocs {
			t.Errorf("%s k=%d: %d allocations per warm query, budget %d", c.name, c.k, got.mallocs, budget.mallocs)
		}
		if got.bytes > budget.bytes {
			t.Errorf("%s k=%d: %d bytes per warm query, budget %d", c.name, c.k, got.bytes, budget.bytes)
		}
		// testing.AllocsPerRun pins GOMAXPROCS to 1 while it measures (so it
		// comes last: resizing the runtime's cores empties their goroutine
		// free lists): the free list must still keep a scratch for every
		// worker (the auto case takes the sequential path there).
		if allocs := testing.AllocsPerRun(3, run); allocs > float64(budget.mallocs) {
			t.Errorf("%s k=%d: %.0f allocations per warm query, budget %d", c.name, c.k, allocs, budget.mallocs)
		}
	}
}

// warmGoroutines keeps n goroutines alive at once, so that the runtime's
// free lists hold n goroutine descriptors once they exit. The runtime
// keeps exited goroutines on per-core lists and moves them to a shared one
// only in batches, so without this a query that starts a worker on one
// core, which exits on the other, gets a fresh descriptor now and then
// until some tens of goroutines have run.
func warmGoroutines(n int) {
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for range n {
		go func() {
			start.Wait()
			done.Done()
		}()
	}
	start.Done()
	done.Wait()
}
