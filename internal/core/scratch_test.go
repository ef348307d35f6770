package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

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
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	return scratchRetainCount()
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

// TestScratchRetentionBound: the free list keeps max(GOMAXPROCS, the
// widest parallel query's workers) + 1 scratches at most, and not one
// whose query-sized buffers outgrew the byte cap. A query with more
// workers than GOMAXPROCS holds W + 1 scratches, and gets all of them back.
func TestScratchRetentionBound(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := freeListBound(); got < procs+1 {
		t.Fatalf("free list bound %d, below GOMAXPROCS + 1 = %d", got, procs+1)
	}
	ps, qs := uniformPoints(9980, 1500, 0), uniformPoints(9990, 1500, 0)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	wide := DefaultOptions(Heap)
	wide.Parallelism = procs + 2
	if _, _, err := KClosestPairs(ta, tb, 10, wide); err != nil {
		t.Fatal(err)
	}
	if got := freeListLen(); got < wide.Parallelism+1 {
		t.Fatalf("after a %d-worker query the free list holds %d scratches, want its %d", wide.Parallelism, got, wide.Parallelism+1)
	}

	bound := freeListBound()
	held := make([]*queryScratch, bound+3)
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
	sc.queue.pairs = make([]nodePair, 0, scratchRetainBytes/40+1)
	releaseScratch(sc)
	if got := freeListLen(); got != bound-1 {
		t.Fatalf("an oversized scratch was retained: %d on the list, want %d", got, bound-1)
	}
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
