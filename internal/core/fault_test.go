package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
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

// pollCountCtx is a context whose Err counts its calls and reports
// context.Canceled from call fireAt on (never when fireAt < 0): cancelling
// at the N-th poll is deterministic wherever that poll sits — the check
// before the traversal, the seed, a worker's next task or a driver's loop.
type pollCountCtx struct {
	context.Context
	fireAt int64
	calls  atomic.Int64
}

func (c *pollCountCtx) Err() error {
	if n := c.calls.Add(1) - 1; c.fireAt >= 0 && n >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// queryDriver is one query entry point the fault and cancel sweeps drive
// over two trees. run returns the driver's answer in a form two runs can
// compare: the range join's streamed pairs sorted by (Dist, RefP, RefQ).
type queryDriver struct {
	name string
	// self marks a driver that reads its first tree alone (the self join).
	self bool
	// workers is the parallel engine's worker count, 1 for a sequential
	// driver: only a sequential driver's poll count is schedule-free.
	workers int
	// steps is the driver's count of loop steps, each one a poll of its
	// cancel gate (semi, whose loop checks its context on every point,
	// counts points).
	steps func(Stats) int64
	run   func(ctx context.Context, ta, tb *rtree.Tree) ([]Pair, Stats, error)
}

// queryDrivers lists every query driver: the five algorithms at W = 1,
// HEAP at W = 2, 4 and 8, the self join at W = 1, 2 and 4, both semi
// joins and the range join. k is the K of the K-CPQ rows, eps the range
// join's distance.
func queryDrivers(k int, eps float64) []queryDriver {
	nodePairs := func(s Stats) int64 { return s.NodePairsProcessed }
	var ds []queryDriver
	kcpq := func(name string, alg Algorithm, workers int, self bool) {
		opts := DefaultOptions(alg)
		opts.Parallelism = workers
		ds = append(ds, queryDriver{name, self, workers, nodePairs,
			func(ctx context.Context, ta, tb *rtree.Tree) ([]Pair, Stats, error) {
				if self {
					return SelfKClosestPairsContext(ctx, ta, k, opts)
				}
				return KClosestPairsContext(ctx, ta, tb, k, opts)
			}})
	}
	kcpq("naive-recursive", Naive, 1, false)
	kcpq("exh-recursive", Exhaustive, 1, false)
	kcpq("sim-recursive", Simple, 1, false)
	kcpq("std-recursive", SortedDistances, 1, false)
	kcpq("heap-seq", Heap, 1, false)
	for _, w := range []int{2, 4, 8} {
		kcpq(fmt.Sprintf("heap-par%d", w), Heap, w, false)
	}
	kcpq("self-seq", Heap, 1, true)
	for _, w := range []int{2, 4} {
		kcpq(fmt.Sprintf("self-par%d", w), Heap, w, true)
	}
	semiOpts := DefaultOptions(Heap)
	return append(ds,
		queryDriver{"semi", false, 1, func(s Stats) int64 { return s.PointPairsCompared },
			func(ctx context.Context, ta, tb *rtree.Tree) ([]Pair, Stats, error) {
				return SemiClosestPairsContext(ctx, ta, tb, semiOpts)
			}},
		queryDriver{"semi-batched", false, 1, nodePairs,
			func(ctx context.Context, ta, tb *rtree.Tree) ([]Pair, Stats, error) {
				return SemiClosestPairsBatchedContext(ctx, ta, tb, semiOpts)
			}},
		queryDriver{"range", false, 1, nodePairs,
			func(ctx context.Context, ta, tb *rtree.Tree) ([]Pair, Stats, error) {
				var out []Pair
				stats, err := WithinDistanceContext(ctx, ta, tb, eps, semiOpts, func(p Pair) bool {
					out = append(out, p)
					return true
				})
				slices.SortFunc(out, func(a, b Pair) int {
					return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.RefP, b.RefP), cmp.Compare(a.RefQ, b.RefQ))
				})
				return out, stats, err
			}},
	)
}

// settle waits for the goroutines a query spawned to exit (an exiting
// goroutine is observable slightly after its spawner returns) and fails
// if more than baseline remain.
func settle(t *testing.T, label string, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%s: %d goroutines, %d before", label, n, baseline)
	}
}

// TestParallelFaultSweep runs faultSweep over the parallel engine's rows
// (HEAP at W > 1) and the self join's.
func TestParallelFaultSweep(t *testing.T) {
	faultSweep(t, func(d queryDriver) bool { return d.workers > 1 || d.self })
}

// TestQueriesSurfaceInjectedReadErrors runs faultSweep over the remaining
// rows: the five algorithms at W = 1, both semi joins and the range join.
func TestQueriesSurfaceInjectedReadErrors(t *testing.T) {
	faultSweep(t, func(d queryDriver) bool { return d.workers == 1 && !d.self })
}

// faultSweep fails every query driver that keep selects at every step it
// has: the N-th page read of either tree for every N up to the query's
// read count, and the N-th context poll for every poll the query makes.
// Each query must return the injected error (or finish, having read no
// more than N pages, with the right answer) or ctx.Err(); afterwards
// every worker goroutine is gone, the scratch free list is within its
// bound, and the next query returns the answer of an undisturbed run.
// That next query completing is also the proof that no page stayed
// pinned: a pin is the pool's shard lock, held only inside
// BufferPool.View, and a leaked one would block its first read. On these
// trees a driver's loop takes fewer than cancelStride steps, so the polls
// swept here are the checks around the loops (before a traversal, per
// seed expansion and task, per semi point);
// TestCancelledQueriesReturnCtxErr sweeps the loop polls.
func faultSweep(t *testing.T, keep func(queryDriver) bool) {
	ps, qs := uniformPoints(5200, 100, 0), uniformPoints(5300, 80, 0.3)
	ta, fa := buildFaultTree(t, ps)
	tb, fb := buildFaultTree(t, qs)
	type side struct {
		name string
		tree *rtree.Tree
		ff   *storage.FaultFile
	}

	for _, d := range queryDrivers(10, 0.02) {
		if !keep(d) {
			continue
		}
		t.Run(d.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			want, stats, err := d.run(context.Background(), ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			if d.workers > 1 && stats.NodePairsProcessed >= cancelStride {
				t.Fatalf("%d node pairs: a worker's stride-gated poll could fire, and the poll count would depend on the schedule", stats.NodePairsProcessed)
			}
			// after runs the checks every failed query owes.
			after := func(label string) {
				t.Helper()
				settle(t, label, baseline)
				if n, bound := freeListLen(), freeListBound(); n > bound {
					t.Fatalf("%s: free list holds %d scratches, bound %d", label, n, bound)
				}
				got, _, err := d.run(context.Background(), ta, tb)
				if err != nil {
					t.Fatalf("%s: next query: %v", label, err)
				}
				samePairs(t, label+": next query", got, want)
			}

			sides := []side{{"P", ta, fa}}
			if !d.self {
				sides = append(sides, side{"Q", tb, fb})
			}
			for _, s := range sides {
				reads := func() int64 { return s.tree.Pool().Stats().Reads }
				before := reads()
				if _, _, err := d.run(context.Background(), ta, tb); err != nil {
					t.Fatal(err)
				}
				total := reads() - before
				t.Logf("failing each of %s's %d reads", s.name, total)
				for n := int64(0); n <= total; n++ {
					label := fmt.Sprintf("read %d of %s's %d fails", n, s.name, total)
					s.ff.FailReadAfter(n)
					before := reads()
					got, _, err := d.run(context.Background(), ta, tb)
					did := reads() - before
					s.ff.FailReadAfter(-1)
					switch {
					case err != nil && !errors.Is(err, storage.ErrInjected):
						t.Fatalf("%s: err = %v, want ErrInjected", label, err)
					case err == nil && did > n:
						t.Fatalf("%s: succeeded after %d reads", label, did)
					case err == nil:
						samePairs(t, label, got, want)
					}
					after(label)
				}
			}

			ref := &pollCountCtx{Context: context.Background(), fireAt: -1}
			if _, _, err := d.run(ref, ta, tb); err != nil {
				t.Fatal(err)
			}
			// The parallel engine polls before the traversal, per seed
			// expansion and per task.
			polls := ref.calls.Load()
			if d.workers > 1 && polls < 3 {
				t.Fatalf("only %d polls: the sweep would not reach the seed and the tasks", polls)
			}
			t.Logf("cancelling at each of %d polls", polls)
			for n := int64(0); n < polls; n++ {
				label := fmt.Sprintf("poll %d of %d cancels", n, polls)
				ctx := &pollCountCtx{Context: context.Background(), fireAt: n}
				if _, _, err := d.run(ctx, ta, tb); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want context.Canceled", label, err)
				}
				after(label)
			}
		})
	}
}

// TestCancelledQueriesReturnCtxErr is the loop half of the cancel sweep:
// every query driver, on trees large enough that its loop takes at least
// two cancelStride strides of steps, must stop from inside that loop. The
// context reports nil on its first call — for a K-CPQ the check before
// the traversal, for the other drivers the loop's own first look — and
// context.Canceled from then on. Each driver must also look at its
// context at least once per cancelStride loop steps, the latency bound
// the stride promises: a loop that polls a context other than the
// query's, or stops polling, fails here even where another loop's poll
// would still stop the query. No goroutine may outlive a cancelled
// query, and the trees stay usable.
func TestCancelledQueriesReturnCtxErr(t *testing.T) {
	ps := uniformPoints(7400, 3000, 0)
	qs := uniformPoints(7500, 3000, 0) // full overlap: maximal frontier work
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	for _, d := range queryDrivers(2000, 0.01) {
		t.Run(d.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ref := &pollCountCtx{Context: context.Background(), fireAt: -1}
			_, stats, err := d.run(ref, ta, tb)
			if err != nil {
				t.Fatal(err)
			}
			steps, polls := d.steps(stats), ref.calls.Load()
			if steps < 2*cancelStride {
				t.Fatalf("workload too small to exercise the stride gate: %d steps, need >= %d", steps, 2*cancelStride)
			}
			if polls < steps/cancelStride {
				t.Fatalf("%d polls in %d steps: the context must be consulted once per %d steps", polls, steps, cancelStride)
			}
			ctx := &pollCountCtx{Context: context.Background(), fireAt: 1}
			if _, _, err := d.run(ctx, ta, tb); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			settle(t, d.name, baseline)
		})
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
