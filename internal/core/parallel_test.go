package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// samePairs asserts two runs returned the same pairs — points, refs,
// distances and order. The K-heap's (distSq, refP, refQ) total order makes
// the top K a function of the candidate set alone, so every execution mode
// must agree exactly, exact distance ties included.
func samePairs(t *testing.T, label string, got, want []Pair) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d pairs, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// gridPoints draws n points from the 20 x 20 integer grid: duplicates and
// exact distance ties everywhere.
func gridPoints(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(20)), Y: float64(rng.Intn(20))}
	}
	return pts
}

// squeeze maps points' X into [lo, hi], keeping Y, to build spatially
// disjoint sets.
func squeeze(pts []geom.Point, lo, hi float64) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = geom.Point{X: lo + p.X*(hi-lo), Y: p.Y}
	}
	return out
}

// TestParallelMatchesSequential is the parallel-equivalence property test:
// across K, tie strategies, height strategies and data distributions, the
// parallel HEAP engine must return exactly the pairs of the sequential
// HEAP, refs and order included, and the sequential STD and brute force
// must agree too. Besides uniform and clustered data, the inputs are the
// shapes the per-call shard partitioner was tested on: two spatially
// disjoint sets, and one point against many. The grid trials are the
// duplicate-heavy case, where a pair set that is merely "a valid instance
// under ties" would show.
func TestParallelMatchesSequential(t *testing.T) {
	type data struct {
		name   string
		ps, qs []geom.Point
	}
	uni := uniformPoints(4100, 900, 0)
	uniQ := uniformPoints(4200, 800, 0.25)
	clu := dataset.Clustered(4300, 900)
	cluQ := dataset.Clustered(4400, 800)
	datasets := []data{
		{"uniform", uni, uniQ},
		{"clustered", clu, cluQ},
		{"disjoint", squeeze(dataset.Uniform(4410, 900), 0, 0.35), squeeze(dataset.Uniform(4420, 800), 0.65, 1)},
		{"one-point", uniformPoints(4430, 1, 0), uniformPoints(4440, 900, 0)},
	}

	for _, d := range datasets {
		// Different page sizes give the two trees different heights, so
		// both height strategies do real work.
		ta := buildTree(t, d.ps, 256)
		tb := buildTree(t, d.qs, 512)
		if ta.Height() == tb.Height() {
			t.Fatalf("%s: want different tree heights, got %d and %d",
				d.name, ta.Height(), tb.Height())
		}
		for _, k := range []int{1, 10, 100} {
			brute := BruteForceKCP(d.ps, d.qs, k)
			for _, height := range []HeightStrategy{FixAtRoot, FixAtLeaves} {
				for _, tie := range TieStrategies() {
					opts := DefaultOptions(Heap)
					opts.Tie = tie
					opts.Height = height
					label := fmt.Sprintf("%s/k=%d/%v/%v", d.name, k, height, tie)

					want, _, err := KClosestPairs(ta, tb, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					samePairs(t, label+"/brute", want, brute)
					stdOpts := opts
					stdOpts.Algorithm = SortedDistances
					stdPairs, _, err := KClosestPairs(ta, tb, k, stdOpts)
					if err != nil {
						t.Fatal(err)
					}
					samePairs(t, label+"/STD", stdPairs, want)

					for _, workers := range []int{2, 4} {
						popts := opts
						popts.Parallelism = workers
						got, stats, err := KClosestPairs(ta, tb, k, popts)
						if err != nil {
							t.Fatal(err)
						}
						samePairs(t, fmt.Sprintf("%s/par=%d", label, workers), got, want)
						if stats.Accesses() <= 0 || stats.PointPairsCompared <= 0 {
							t.Fatalf("%s: implausible parallel stats: %v", label, stats)
						}
					}
				}
			}
		}
	}

	trials := int64(20)
	if testing.Short() {
		trials = 4 // ci.sh repeats this test under -race
	}
	for trial := int64(0); trial < trials; trial++ {
		ps, qs := gridPoints(4500+2*trial, 400), gridPoints(4501+2*trial, 400)
		ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
		for _, k := range []int{1, 10, 100, 1000} {
			want, _, err := KClosestPairs(ta, tb, k, DefaultOptions(Heap))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4} {
				opts := DefaultOptions(Heap)
				opts.Parallelism = workers
				got, _, err := KClosestPairs(ta, tb, k, opts)
				if err != nil {
					t.Fatal(err)
				}
				samePairs(t, fmt.Sprintf("grid %d/k=%d/par=%d", trial, k, workers), got, want)
			}
		}
	}
}

// TestParallelTaskEngine drives the task engine directly, with one worker
// and with three, over the golden configurations. The result must be the
// sequential query's, every node pair the counters count must have been
// traced, and every traced tightening must lower its bound without
// undercutting the final K-th key. With one worker the whole run — seed,
// tasks, merges — is a single chain of tightenings, so the traced values
// must also strictly decrease from one event to the next.
func TestParallelTaskEngine(t *testing.T) {
	for _, in := range parityInputs(t) {
		for _, k := range parityKs {
			if testing.Short() && k > 100 {
				continue // ci.sh repeats this test under -race
			}
			opts := DefaultOptions(Heap)
			opts.Height = in.height
			want, _, err := KClosestPairs(in.ka, in.kb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				name := fmt.Sprintf("%s/k=%d/W=%d", in.name, k, workers)
				j, err := newJoin(in.ka, in.kb, k, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				var trace captureTracer
				j.span = obs.StartSpan(&trace, name)
				root, err := j.rootPair()
				if err != nil {
					t.Fatal(err)
				}
				if err := j.runHeapParallel(context.Background(), root, workers); err != nil {
					t.Fatal(err)
				}
				stats := j.stats.snapshot()
				got := j.kheap.results(j.metric)
				kth := j.kheap.pairs[len(j.kheap.pairs)-1].distSq // sorted by results
				j.release()

				samePairs(t, name, got, want)
				var expanded int64
				for _, e := range trace.events {
					if e.Kind == obs.EvNodeExpanded {
						expanded++
					}
				}
				if expanded != stats.NodePairsProcessed {
					t.Fatalf("%s: %d node_expanded events, NodePairsProcessed = %d", name, expanded, stats.NodePairsProcessed)
				}
				steps := boundSteps(trace.events)
				if len(steps) == 0 {
					t.Fatalf("%s: the bound never tightened", name)
				}
				for i, s := range steps {
					if !(s.to < s.old) || s.to < kth {
						t.Fatalf("%s: tightening %d went %g -> %g (final K-th key %g)", name, i, s.old, s.to, kth)
					}
					if workers == 1 && i > 0 && !(s.to < steps[i-1].to) {
						t.Fatalf("%s: tightening %d to %g does not undercut the previous one, %g", name, i, s.to, steps[i-1].to)
					}
				}
			}
		}
	}
}

// TestParallelQueuesArePerTask pins the property the parallel speedup
// rests on: a worker's queue holds one subtree pair's frontier, not the
// query's, so the largest queue of a two-worker query is a small fraction
// of the sequential one.
func TestParallelQueuesArePerTask(t *testing.T) {
	ta := bulkTree(t, dataset.Uniform(1801, 20000))
	tb := bulkTree(t, dataset.Uniform(1802, 20000))
	_, seq, err := KClosestPairs(ta, tb, 100, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(Heap)
	opts.Parallelism = 2
	_, par, err := KClosestPairs(ta, tb, 100, opts)
	if err != nil {
		t.Fatal(err)
	}
	if par.MaxQueueSize*10 >= seq.MaxQueueSize {
		t.Fatalf("two-worker max queue %d, sequential %d: want below a tenth", par.MaxQueueSize, seq.MaxQueueSize)
	}
}

// TestParallelismOneTakesSequentialPath: Parallelism 0 and 1 must run the
// exact sequential algorithm — identical pairs and identical statistics,
// including the paper's disk access counts.
func TestParallelismOneTakesSequentialPath(t *testing.T) {
	ps := uniformPoints(4500, 800, 0)
	qs := uniformPoints(4600, 700, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	base := DefaultOptions(Heap)
	wantPairs, wantStats, err := KClosestPairs(ta, tb, 25, base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.Parallelism = 1
	gotPairs, gotStats, err := KClosestPairs(ta, tb, 25, one)
	if err != nil {
		t.Fatal(err)
	}
	if gotStats != wantStats {
		t.Fatalf("Parallelism=1 stats = %v, want %v", gotStats, wantStats)
	}
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("got %d pairs, want %d", len(gotPairs), len(wantPairs))
	}
	for i := range gotPairs {
		if gotPairs[i] != wantPairs[i] {
			t.Fatalf("pair %d = %v, want %v", i, gotPairs[i], wantPairs[i])
		}
	}
}

// TestParallelAutoAndValidation covers AutoParallelism resolution and the
// Parallelism validation bound.
func TestParallelAutoAndValidation(t *testing.T) {
	ps := uniformPoints(4700, 300, 0)
	qs := uniformPoints(4800, 300, 0.5)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)

	opts := DefaultOptions(Heap)
	opts.Parallelism = AutoParallelism
	pairs, _, err := KClosestPairs(ta, tb, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBrute(t, pairs, ps, qs, 5)

	opts.Parallelism = AutoParallelism - 1
	if _, _, err := KClosestPairs(ta, tb, 5, opts); err == nil {
		t.Fatal("Parallelism below AutoParallelism must be rejected")
	}
}

// TestParallelSurfacesInjectedReadErrors: a page read failure in any
// worker must abort the whole parallel query with that error (not hang,
// not panic).
func TestParallelSurfacesInjectedReadErrors(t *testing.T) {
	ps := uniformPoints(4900, 500, 0)
	qs := uniformPoints(5000, 500, 0.5)
	ta, fa := buildFaultTree(t, ps)
	tb, _ := buildFaultTree(t, qs)

	opts := DefaultOptions(Heap)
	opts.Parallelism = 4
	fa.FailReadAfter(5)
	_, _, err := KClosestPairs(ta, tb, 10, opts)
	if !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	fa.FailReadAfter(-1)

	// The trees must still be usable after the aborted run.
	pairs, _, err := KClosestPairs(ta, tb, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstBrute(t, pairs, ps, qs, 10)
}

// pollCountCtx is a context whose Err counts its calls and reports
// context.Canceled from call fireAt on (never when fireAt < 0): cancelling
// at the N-th poll is deterministic wherever that poll sits — the check
// before the traversal, the seed, or a worker's claim.
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

// TestParallelFaultSweep fails the parallel engine at every step it has:
// the N-th page read of either tree for every N up to the query's read
// count, and the N-th context poll for every poll the query makes. Each
// query must return the injected error (or finish, having read no more
// than N pages, with the right answer) or ctx.Err(); afterwards every
// worker goroutine is gone, the scratch free list is within its bound, and
// the next query is correct. That next query completing is also the proof
// that no page stayed pinned: a pin is the pool's shard lock, held only
// inside BufferPool.View, and a leaked one would block its first read.
// The self join of P runs the same sweep, sequentially and on the engine.
func TestParallelFaultSweep(t *testing.T) {
	ps, qs := uniformPoints(5200, 300, 0), uniformPoints(5300, 250, 0.3)
	ta, fa := buildFaultTree(t, ps)
	tb, fb := buildFaultTree(t, qs)
	const k = 10
	type side struct {
		name string
		tree *rtree.Tree
		ff   *storage.FaultFile
	}
	sideP, sideQ := side{"P", ta, fa}, side{"Q", tb, fb}
	queries := []struct {
		name    string
		run     func(context.Context, Options) ([]Pair, Stats, error)
		want    []Pair
		sides   []side
		workers []int
	}{
		{"P x Q", func(ctx context.Context, opts Options) ([]Pair, Stats, error) {
			return KClosestPairsContext(ctx, ta, tb, k, opts)
		}, BruteForceKCP(ps, qs, k), []side{sideP, sideQ}, []int{2, 4}},
		{"self P", func(ctx context.Context, opts Options) ([]Pair, Stats, error) {
			return SelfKClosestPairsContext(ctx, ta, k, opts)
		}, BruteForceSelfKCP(ps, k), []side{sideP}, []int{1, 2, 4}},
	}
	baseline := runtime.NumGoroutine()

	for _, q := range queries {
		// after runs the checks every failed query owes.
		after := func(label string, opts Options) {
			t.Helper()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Fatalf("%s: %d goroutines, %d before", label, n, baseline)
			}
			if n, bound := freeListLen(), freeListBound(); n > bound {
				t.Fatalf("%s: free list holds %d scratches, bound %d", label, n, bound)
			}
			got, _, err := q.run(context.Background(), opts)
			if err != nil {
				t.Fatalf("%s: next query: %v", label, err)
			}
			samePairs(t, label+": next query", got, q.want)
		}

		for _, workers := range q.workers {
			opts := DefaultOptions(Heap)
			opts.Parallelism = workers
			for _, side := range q.sides {
				reads := func() int64 { return side.tree.Pool().Stats().Reads }
				before := reads()
				if _, _, err := q.run(context.Background(), opts); err != nil {
					t.Fatal(err)
				}
				total := reads() - before
				t.Logf("%s W=%d: failing each of %s's %d reads", q.name, workers, side.name, total)
				for n := int64(0); n <= total; n++ {
					label := fmt.Sprintf("%s W=%d: read %d of %s's %d fails", q.name, workers, n, side.name, total)
					side.ff.FailReadAfter(n)
					before := reads()
					got, _, err := q.run(context.Background(), opts)
					did := reads() - before
					side.ff.FailReadAfter(-1)
					switch {
					case err != nil && !errors.Is(err, storage.ErrInjected):
						t.Fatalf("%s: err = %v, want ErrInjected", label, err)
					case err == nil && did > n:
						t.Fatalf("%s: succeeded after %d reads", label, did)
					case err == nil:
						samePairs(t, label, got, q.want)
					}
					after(label, opts)
				}
			}

			ref := &pollCountCtx{Context: context.Background(), fireAt: -1}
			_, stats, err := q.run(ref, opts)
			if err != nil {
				t.Fatal(err)
			}
			if stats.NodePairsProcessed >= cancelStride {
				t.Fatalf("%d node pairs: a worker's stride-gated poll could fire, and the poll count would depend on the schedule", stats.NodePairsProcessed)
			}
			// The sequential query polls once, before the traversal; the
			// engine also per seed expansion and per task.
			polls := ref.calls.Load()
			minPolls := int64(3)
			if workers == 1 {
				minPolls = 1
			}
			if polls < minPolls {
				t.Fatalf("only %d polls: the sweep would not reach the seed and the tasks", polls)
			}
			t.Logf("%s W=%d: cancelling at each of %d polls", q.name, workers, polls)
			for n := int64(0); n < polls; n++ {
				label := fmt.Sprintf("%s W=%d: poll %d of %d cancels", q.name, workers, n, polls)
				ctx := &pollCountCtx{Context: context.Background(), fireAt: n}
				if _, _, err := q.run(ctx, opts); !errors.Is(err, context.Canceled) {
					t.Fatalf("%s: err = %v, want context.Canceled", label, err)
				}
				after(label, opts)
			}
		}
	}
}

// TestParallelSelfJoinSharedPool runs a parallel join of a tree with
// itself (shared buffer pool) to exercise concurrent access to one pool
// from both sides of the join.
func TestParallelSelfJoinSharedPool(t *testing.T) {
	ps := uniformPoints(5100, 600, 0)
	ta := buildTree(t, ps, 256)

	seq, _, err := KClosestPairs(ta, ta, 20, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(Heap)
	opts.Parallelism = 4
	par, stats, err := KClosestPairs(ta, ta, 20, opts)
	if err != nil {
		t.Fatal(err)
	}
	samePairs(t, "self", par, seq)
	if stats.IOQ != (storage.IOStats{}) {
		t.Fatalf("shared pool must report its delta once, got IOQ = %v", stats.IOQ)
	}
}
