package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// buildFaultTree indexes pts on a FaultFile so read failures can be
// injected mid-query.
func buildFaultTree(t *testing.T, pts []geom.Point) (*rtree.Tree, *storage.FaultFile) {
	t.Helper()
	ff := storage.NewFaultFile(storage.NewMemFile(256))
	pool := storage.NewBufferPool(ff, 0)
	tr, err := rtree.New(pool, rtree.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr, ff
}

// TestQueriesSurfaceInjectedReadErrors: every algorithm must propagate a
// mid-traversal page read failure instead of panicking or returning
// partial results silently. The K-CPQ self join's read failures are swept
// read by read in TestParallelFaultSweep.
func TestQueriesSurfaceInjectedReadErrors(t *testing.T) {
	ps := uniformPoints(7000, 500, 0)
	qs := uniformPoints(7100, 500, 0.5)
	ta, fa := buildFaultTree(t, ps)
	tb, _ := buildFaultTree(t, qs)

	for _, alg := range Algorithms() {
		// Let a handful of reads through, then fail.
		fa.FailReadAfter(3)
		_, _, err := KClosestPairs(ta, tb, 10, DefaultOptions(alg))
		if !errors.Is(err, storage.ErrInjected) {
			t.Errorf("%v: err = %v, want ErrInjected", alg, err)
		}
		fa.FailReadAfter(-1)
	}

	// Semi-CPQ.
	fa.FailReadAfter(2)
	if _, _, err := SemiClosestPairs(ta, tb, DefaultOptions(Heap)); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("semi: err = %v, want ErrInjected", err)
	}
	fa.FailReadAfter(-1)

	// Range join.
	fa.FailReadAfter(2)
	if _, err := WithinDistance(ta, tb, 0.5, DefaultOptions(Heap), func(Pair) bool { return true }); !errors.Is(err, storage.ErrInjected) {
		t.Errorf("range: err = %v, want ErrInjected", err)
	}
	fa.FailReadAfter(-1)

	// After disarming, the query works again (no corrupted state).
	got, _, err := KClosestPairs(ta, tb, 5, DefaultOptions(Heap))
	if err != nil {
		t.Fatalf("recovery query failed: %v", err)
	}
	checkAgainstBrute(t, got, ps, qs, 5)
}

// TestCancelledQueriesReturnCtxErr is the cancellation analogue of the
// injected-read test above: a context that fires mid-join must surface
// context.Canceled from the sequential HEAP driver, the parallel engine
// and the recursive STD algorithm, leak no goroutines, and leave the
// trees reusable (every buffer-pool pin released) for a follow-up query.
//
// The context's Err reports nil on its first call — the check before the
// traversal starts — and context.Canceled from then on, so the sequential
// drivers can only return the error from a traversal-loop poll (the
// parallel engine may also return it from its seed). Because polls are
// stride-gated, that also proves the workload drives each loop past
// cancelStride steps, a precondition the test checks explicitly against
// the uncancelled run's node-pair counter.
func TestCancelledQueriesReturnCtxErr(t *testing.T) {
	ps := uniformPoints(7400, 3000, 0)
	qs := uniformPoints(7500, 3000, 0) // full overlap: maximal frontier work
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	const k = 2000

	par8 := DefaultOptions(Heap)
	par8.Parallelism = 8
	modes := []struct {
		name string
		opts Options
	}{
		{"heap-seq", DefaultOptions(Heap)},
		{"heap-par8", par8},
		{"std-recursive", DefaultOptions(SortedDistances)},
	}

	// Precondition: the sequential drivers must take well over one poll
	// stride's worth of steps, or the loop poll would never look at the
	// context and the query would "pass" by completing normally.
	_, stats, err := KClosestPairs(ta, tb, k, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodePairsProcessed < 2*cancelStride {
		t.Fatalf("workload too small to exercise the stride gate: %d node pairs, need >= %d",
			stats.NodePairsProcessed, 2*cancelStride)
	}

	before := runtime.NumGoroutine()
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			ctx := &pollCountCtx{Context: context.Background(), fireAt: 1}
			_, _, err := KClosestPairsContext(ctx, ta, tb, k, m.opts)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("err = %v, want context.Canceled", err)
			}
		})
	}

	// Everything spawned by the cancelled runs (the parallel workers)
	// must be joined, not abandoned. Settle briefly: exiting
	// goroutines are observable slightly after their spawner returns.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked by cancelled queries: %d before, %d after", before, after)
	}

	// The trees must be fully usable afterwards: an unbalanced pin or a
	// poisoned pool would corrupt this follow-up query.
	got, _, err := KClosestPairs(ta, tb, 5, DefaultOptions(Heap))
	if err != nil {
		t.Fatalf("follow-up query failed: %v", err)
	}
	checkAgainstBrute(t, got, ps, qs, 5)
}

// TestContextNeutralWhenNotCancelled pins the acceptance contract of the
// context threading: under a live but never-cancelled context, results
// and every paper counter must be byte-identical to the Background shim.
func TestContextNeutralWhenNotCancelled(t *testing.T) {
	ps := uniformPoints(7600, 1500, 0)
	qs := uniformPoints(7700, 1500, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, alg := range []Algorithm{Heap, SortedDistances} {
		base, baseStats, err := KClosestPairs(ta, tb, 64, DefaultOptions(alg))
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := KClosestPairsContext(ctx, ta, tb, 64, DefaultOptions(alg))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(base) {
			t.Fatalf("%v: %d pairs under context, %d under shim", alg, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Errorf("%v: pair %d differs under context: %+v vs %+v", alg, i, got[i], base[i])
			}
		}
		if gotStats != baseStats {
			t.Errorf("%v: stats differ under context:\n%+v\nvs shim\n%+v", alg, gotStats, baseStats)
		}
	}
}

// failOneWrite is a page file that fails exactly one page write, the
// n-th (0-based, negative: none), and passes every other write through.
// storage.FaultFile fails every write from its trigger on, so a tree
// operation's last write — the header, which every insert and delete
// ends with — would carry the error out even where an earlier write's
// error was dropped.
type failOneWrite struct {
	storage.PageFile
	n, writes int64
}

func (f *failOneWrite) WritePage(id storage.PageID, buf []byte) error {
	f.writes++
	if f.writes-1 == f.n {
		return storage.ErrInjected
	}
	return f.PageFile.WritePage(id, buf)
}

// TestInsertSurfacesInjectedWriteErrors: tree mutation must propagate
// every write failure. One InsertPoint and one Delete each run on a fresh
// tree with the N-th of their page writes failing, for every N below the
// number of writes the same operation makes on a twin tree where nothing
// fails.
func TestInsertSurfacesInjectedWriteErrors(t *testing.T) {
	pts := uniformPoints(7200, 50, 0)
	extra := uniformPoints(7300, 1, 0)[0]
	build := func() (*rtree.Tree, *failOneWrite) {
		f := &failOneWrite{PageFile: storage.NewMemFile(256), n: -1}
		tr, err := rtree.New(storage.NewBufferPool(f, 0), rtree.Config{PageSize: 256})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pts {
			if err := tr.InsertPoint(p, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr, f
	}
	ops := []struct {
		name string
		run  func(*rtree.Tree) error
	}{
		{"insert", func(tr *rtree.Tree) error { return tr.InsertPoint(extra, int64(len(pts))) }},
		{"delete", func(tr *rtree.Tree) error { return tr.DeletePoint(pts[0], 0) }},
	}
	for _, op := range ops {
		twin, _ := build()
		before := twin.Pool().Stats().Writes
		if err := op.run(twin); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		writes := twin.Pool().Stats().Writes - before
		if writes == 0 {
			t.Fatalf("%s wrote nothing", op.name)
		}
		for n := int64(0); n < writes; n++ {
			tr, f := build()
			f.n = f.writes + n
			if err := op.run(tr); !errors.Is(err, storage.ErrInjected) {
				t.Errorf("%s, write %d of %d fails: err = %v, want ErrInjected", op.name, n, writes, err)
			}
		}
	}
}
