package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs/explain"
	"repro/internal/storage"
)

// freeListLen reports how many scratches the free list retains.
func freeListLen() int {
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	return len(scratchFree.list)
}

// freeListBound is the most scratches the free list may retain now.
func freeListBound() int {
	return scratchRetainCount()
}

// lastReleased is the scratch on top of the free list: the one the last
// query released and the next query takes.
func lastReleased(t *testing.T) *queryScratch {
	t.Helper()
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	if len(scratchFree.list) == 0 {
		t.Fatal("the free list is empty")
	}
	return scratchFree.list[len(scratchFree.list)-1]
}

// TestResultsDoNotAliasScratch: the pairs a query returns are the caller's.
// A later query — other trees, other K, other engine — reuses the same
// scratch and must leave them untouched.
func TestResultsDoNotAliasScratch(t *testing.T) {
	ps, qs := uniformPoints(9500, 900, 0), uniformPoints(9600, 800, 0.2)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	us, vs := uniformPoints(9700, 700, 5), uniformPoints(9800, 600, 5.1)
	tu, tv := buildTree(t, us, 256), buildTree(t, vs, 256)

	par := DefaultOptions(Heap)
	par.Parallelism = 2
	first := []struct {
		name string
		run  func() ([]Pair, Stats, error)
	}{
		{"heap", func() ([]Pair, Stats, error) { return KClosestPairs(ta, tb, 50, DefaultOptions(Heap)) }},
		{"heap-par2", func() ([]Pair, Stats, error) { return KClosestPairs(ta, tb, 50, par) }},
		{"std", func() ([]Pair, Stats, error) { return KClosestPairs(ta, tb, 50, DefaultOptions(SortedDistances)) }},
		{"self", func() ([]Pair, Stats, error) { return SelfKClosestPairs(ta, 50, DefaultOptions(Heap)) }},
	}
	for _, a := range first {
		got, _, err := a.run()
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		kept := append([]Pair(nil), got...)
		for _, b := range []func() ([]Pair, Stats, error){
			func() ([]Pair, Stats, error) { return KClosestPairs(tu, tv, 300, DefaultOptions(Heap)) },
			func() ([]Pair, Stats, error) { return KClosestPairs(tu, tv, 300, par) },
			func() ([]Pair, Stats, error) { return KClosestPairs(tu, tv, 300, DefaultOptions(Simple)) },
			func() ([]Pair, Stats, error) { return SelfKClosestPairs(tv, 300, DefaultOptions(Heap)) },
		} {
			if _, _, err := b(); err != nil {
				t.Fatalf("%s: follow-up query: %v", a.name, err)
			}
		}
		for i := range kept {
			if got[i] != kept[i] {
				t.Fatalf("%s: result %d changed under later queries: %+v, was %+v", a.name, i, got[i], kept[i])
			}
		}
	}
}

// TestScratchSurvivesFailedQueries: a query that dies on its N-th page
// read, or is cancelled mid-traversal, still returns its scratch — with
// whatever half-built queue and heap it held — and the next query in the
// process starts from it and is correct. It completing at all is also the
// proof that no page stayed pinned: a pin is the pool's shard lock, held
// only inside BufferPool.View, and a leaked one would block the very next
// read. The free list never exceeds its bound.
func TestScratchSurvivesFailedQueries(t *testing.T) {
	ps, qs := uniformPoints(9900, 3000, 0), uniformPoints(9950, 3000, 0)
	ta, fa := buildFaultTree(t, ps)
	tb, _ := buildFaultTree(t, qs)

	par := DefaultOptions(Heap)
	par.Parallelism = 3
	engines := []struct {
		name string
		run  func(ctx context.Context, k int) ([]Pair, error)
	}{
		{"heap", func(ctx context.Context, k int) ([]Pair, error) {
			p, _, err := KClosestPairsContext(ctx, ta, tb, k, DefaultOptions(Heap))
			return p, err
		}},
		{"heap-par3", func(ctx context.Context, k int) ([]Pair, error) {
			p, _, err := KClosestPairsContext(ctx, ta, tb, k, par)
			return p, err
		}},
		{"std", func(ctx context.Context, k int) ([]Pair, error) {
			p, _, err := KClosestPairsContext(ctx, ta, tb, k, DefaultOptions(SortedDistances))
			return p, err
		}},
		{"self", func(ctx context.Context, k int) ([]Pair, error) {
			p, _, err := SelfKClosestPairsContext(ctx, ta, k, DefaultOptions(Heap))
			return p, err
		}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, e := range engines {
		for _, n := range []int64{0, 1, 7, 400} {
			fa.FailReadAfter(n)
			_, err := e.run(context.Background(), 2000)
			fa.FailReadAfter(-1)
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("%s: read fault after %d reads: err = %v", e.name, n, err)
			}
			if got, bound := freeListLen(), freeListBound(); got > bound {
				t.Fatalf("%s: free list holds %d scratches, bound %d", e.name, got, bound)
			}
		}
		if _, err := e.run(cancelled, 2000); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled query: err = %v", e.name, err)
		}
		if got, bound := freeListLen(), freeListBound(); got > bound || got == 0 {
			t.Fatalf("%s: free list holds %d scratches after a cancelled query, want 1..%d", e.name, got, bound)
		}

		got, err := e.run(context.Background(), 25)
		if err != nil {
			t.Fatalf("%s: query after the failed ones: %v", e.name, err)
		}
		if e.name == "self" {
			want := BruteForceSelfKCP(ps, 25)
			for i := range want {
				if got[i].Dist != want[i].Dist {
					t.Fatalf("self: pair %d dist %g, want %g", i, got[i].Dist, want[i].Dist)
				}
			}
			continue
		}
		checkAgainstBrute(t, got, ps, qs, 25)
	}
}

// TestScratchRetentionBound: the free list keeps GOMAXPROCS + 1 query
// scratches at most, and not one whose query-sized buffers, its worker
// scratches' included, outgrew the byte cap. A query with more workers
// than GOMAXPROCS gets its scratch back holding one worker scratch per
// worker.
func TestScratchRetentionBound(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := freeListBound(); got != procs+1 {
		t.Fatalf("free list bound %d, want GOMAXPROCS + 1 = %d", got, procs+1)
	}
	ps, qs := uniformPoints(9980, 1500, 0), uniformPoints(9990, 1500, 0)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	// Take every scratch off the list, so the query builds its own.
	var held []*queryScratch
	for freeListLen() > 0 {
		held = append(held, acquireScratch())
	}
	wide := DefaultOptions(Heap)
	wide.Parallelism = procs + 2
	if _, _, err := KClosestPairs(ta, tb, 10, wide); err != nil {
		t.Fatal(err)
	}
	if got := freeListLen(); got != 1 {
		t.Fatalf("after a %d-worker query the free list holds %d scratches, want its 1", wide.Parallelism, got)
	}
	if sc := lastReleased(t); len(sc.workers) != wide.Parallelism {
		t.Fatalf("a %d-worker query's scratch came back with %d worker scratches", wide.Parallelism, len(sc.workers))
	}
	for _, sc := range held {
		releaseScratch(sc)
	}

	bound := freeListBound()
	held = make([]*queryScratch, bound+3)
	for i := range held {
		held[i] = acquireScratch()
	}
	for _, sc := range held {
		releaseScratch(sc)
	}
	if got := freeListLen(); got != bound {
		t.Fatalf("free list holds %d scratches after %d releases, want %d", got, len(held), bound)
	}
	sc := acquireScratch()
	oversized := &queryScratch{queue: pairHeap{pairs: make([]nodePair, 0, scratchRetainBytes/40+1)}}
	sc.workers = append(sc.workers, oversized)
	releaseScratch(sc)
	if got := freeListLen(); got != bound-1 {
		t.Fatalf("a scratch with an oversized worker queue was retained: %d on the list, want %d", got, bound-1)
	}
}

// TestParallelWorkerScratchesStayWarm: a parallel query's worker i runs in
// its scratch's i-th worker slot, so the same share of tasks meets the
// same buffers every time. Once two warm queries have run, ten more
// identical ones grow neither the scratch nor any worker queue, with as
// many workers as cores and with more.
func TestParallelWorkerScratchesStayWarm(t *testing.T) {
	ps, qs := uniformPoints(9930, 3000, 0), uniformPoints(9940, 3000, 0)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0) + 2} {
		opts := DefaultOptions(Heap)
		opts.Parallelism = workers
		run := func() *queryScratch {
			t.Helper()
			if _, _, err := KClosestPairs(ta, tb, 100, opts); err != nil {
				t.Fatal(err)
			}
			return lastReleased(t)
		}
		run()
		sc := run()
		if len(sc.workers) < workers {
			t.Fatalf("W=%d: the query's scratch holds %d worker scratches", workers, len(sc.workers))
		}
		bytes, queues := sc.retainedBytes(), make([]int, workers)
		for i := range queues {
			queues[i] = cap(sc.workers[i].queue.pairs)
			if queues[i] == 0 {
				t.Fatalf("W=%d: worker %d's scratch has no queue", workers, i)
			}
		}
		for q := range 10 {
			if got := run(); got != sc {
				t.Fatalf("W=%d: query %d ran in another scratch", workers, q)
			}
			if got := sc.retainedBytes(); got != bytes {
				t.Fatalf("W=%d: query %d: the scratch retains %d bytes, %d after the warm-up", workers, q, got, bytes)
			}
			for i, c := range queues {
				if got := cap(sc.workers[i].queue.pairs); got != c {
					t.Fatalf("W=%d: query %d: worker %d's queue holds %d pairs, %d after the warm-up", workers, q, i, got, c)
				}
			}
		}
	}
}

// TestFreeListPinsNoQuery: the parallel engine keeps the workers' shared
// state in the query's scratch and each worker's join in its worker slot,
// and clears both before the scratch goes back on the free list, after a
// failed query too. An idle scratch, and each of its worker scratches,
// holds no tree, context, task list or observer of a finished query.
func TestFreeListPinsNoQuery(t *testing.T) {
	ps, qs := uniformPoints(9970, 1500, 0), uniformPoints(9975, 1500, 0)
	ta, fa := buildFaultTree(t, ps)
	tb, _ := buildFaultTree(t, qs)
	par := DefaultOptions(Heap)
	par.Parallelism = 3
	check := func(what string) {
		t.Helper()
		scratchFree.mu.Lock()
		defer scratchFree.mu.Unlock()
		pins := func(sc *queryScratch) bool {
			r, w := &sc.run, &sc.worker
			return r.j != nil || r.ctx != nil || r.tasks != nil ||
				w.ta != nil || w.tb != nil || w.sc != nil || w.opts.Explain != nil || w.ex != nil
		}
		for i, sc := range scratchFree.list {
			if pins(sc) {
				t.Fatalf("%s: free-list scratch %d still holds its query's state", what, i)
			}
			for k, wsc := range sc.workers {
				if pins(wsc) {
					t.Fatalf("%s: worker scratch %d of free-list scratch %d still holds its query's state", what, k, i)
				}
			}
		}
	}
	par.Explain = new(explain.Capture)
	if _, _, err := KClosestPairs(ta, tb, 10, par); err != nil {
		t.Fatal(err)
	}
	check("after a query")
	fa.FailReadAfter(6)
	if _, _, err := KClosestPairs(ta, tb, 10, par); !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	fa.FailReadAfter(-1)
	check("after a failed query")
}

// TestConcurrentQueriesShareFreeList: independent queries on several
// goroutines take and return scratches through the one free list at the
// same time; each must still get the answer it gets alone (run under
// -race in CI).
func TestConcurrentQueriesShareFreeList(t *testing.T) {
	ps, qs := uniformPoints(9960, 600, 0), uniformPoints(9970, 500, 0.3)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	// Capacity-0 pools are pass-through and their trees are read-only
	// here, so sharing them between goroutines is within their contract.
	par := DefaultOptions(Heap)
	par.Parallelism = 2
	engines := []Options{DefaultOptions(Heap), par, DefaultOptions(SortedDistances), DefaultOptions(Simple)}
	want, _, err := KClosestPairs(ta, tb, 40, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2*len(engines))
	for g := 0; g < 2*len(engines); g++ {
		opts := engines[g%len(engines)]
		go func() {
			for i := 0; i < 10; i++ {
				got, _, err := KClosestPairs(ta, tb, 40, opts)
				if err != nil {
					errs <- err
					return
				}
				for r := range want {
					if got[r] != want[r] {
						errs <- fmt.Errorf("%v: pair %d = %+v, want %+v", opts.Algorithm, r, got[r], want[r])
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 2*len(engines); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got, bound := freeListLen(), freeListBound(); got > bound {
		t.Fatalf("free list holds %d scratches, bound %d", got, bound)
	}
}
