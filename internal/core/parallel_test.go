package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs"
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
// undercutting the final K-th key. With one worker the whole run — seed
// and tasks — is a single chain of tightenings, so the traced values
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

// TestParallelCountersRepeat pins what the fixed task shares buy: what a
// parallel query prunes depends on its tasks and the seed's bound alone,
// so its paper counters are the same on every run, at any GOMAXPROCS. The
// buffer-pool counters, through a pool the workers share, are left out.
func TestParallelCountersRepeat(t *testing.T) {
	ta := bulkTree(t, dataset.Uniform(1811, 20000))
	tb := bulkTree(t, dataset.Uniform(1812, 20000))
	counters := func(s Stats) Stats {
		s.IOP, s.IOQ = storage.IOStats{}, storage.IOStats{}
		return s
	}
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, workers := range []int{2, 3} {
		opts := DefaultOptions(Heap)
		opts.Parallelism = workers
		for _, k := range []int{1, 100} {
			for _, self := range []bool{false, true} {
				name := fmt.Sprintf("W=%d/k=%d/self=%v", workers, k, self)
				var want Stats
				for i, gomaxprocs := range []int{1, 2, 2, 4, 4} {
					runtime.GOMAXPROCS(gomaxprocs)
					var stats Stats
					var err error
					if self {
						_, stats, err = SelfKClosestPairs(ta, k, opts)
					} else {
						_, stats, err = KClosestPairs(ta, tb, k, opts)
					}
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want = counters(stats)
					} else if got := counters(stats); got != want {
						t.Fatalf("%s: run %d at GOMAXPROCS %d counted %+v, run 0 %+v", name, i, gomaxprocs, got, want)
					}
				}
			}
		}
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
