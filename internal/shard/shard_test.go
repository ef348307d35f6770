package shard

import (
	"context"
	"math"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func items(pts []geom.Point) []rtree.Item {
	out := make([]rtree.Item, len(pts))
	for i, p := range pts {
		out[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	return out
}

// monoTree bulk loads one monolithic tree for the unsharded reference
// run, on a sharded pool so parallel configurations can read it.
func monoTree(t testing.TB, pts []geom.Point) *rtree.Tree {
	t.Helper()
	pool := storage.NewShardedBufferPool(storage.NewMemFile(1024), 256, 8, storage.LRU)
	tr, err := rtree.New(pool, rtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(items(pts), 0.7); err != nil {
		t.Fatal(err)
	}
	return tr
}

func runUnsharded(t testing.TB, ptsA, ptsB []geom.Point, k int, opts core.Options) []core.Pair {
	t.Helper()
	ta, tb := monoTree(t, ptsA), monoTree(t, ptsB)
	pairs, _, err := core.KClosestPairs(ta, tb, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pairs
}

func runSharded(t testing.TB, ptsA, ptsB []geom.Point, k int, opts core.Options, tiles, workers int) Result {
	t.Helper()
	res, _ := runShardedSet(t, ptsA, ptsB, k, opts, tiles, workers)
	return res
}

// runShardedSet is runSharded that also hands back the (closed) set, for
// tests that inspect how the partitioner laid the tiles out.
func runShardedSet(t testing.TB, ptsA, ptsB []geom.Point, k int, opts core.Options, tiles, workers int) (Result, *Set) {
	t.Helper()
	set, err := Partition(items(ptsA), items(ptsB), Config{Tiles: tiles})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ex := Executor{Set: set, Workers: workers}
	res, err := ex.Run(k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, set
}

// comparePairs demands bit-identical distances and identical tie order.
func comparePairs(t *testing.T, want, got []core.Pair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("result length: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		w, g := want[i], got[i]
		if math.Float64bits(w.Dist) != math.Float64bits(g.Dist) {
			t.Fatalf("pair %d: distance bits differ: want %v (%x), got %v (%x)",
				i, w.Dist, math.Float64bits(w.Dist), g.Dist, math.Float64bits(g.Dist))
		}
		if w.RefP != g.RefP || w.RefQ != g.RefQ {
			t.Fatalf("pair %d: tie order differs: want refs (%d,%d), got (%d,%d)",
				i, w.RefP, w.RefQ, g.RefP, g.RefQ)
		}
		if w.P != g.P || w.Q != g.Q {
			t.Fatalf("pair %d: points differ: want %v-%v, got %v-%v", i, w.P, w.Q, g.P, g.Q)
		}
	}
}

var tileCounts = []int{1, 2, 7, 16}

// TestShardedMatchesUnshardedAlgorithms is the core equivalence
// property: for every algorithm and shard count, the scatter-gather
// answer is bit-identical (distances and tie order) to the monolithic
// join's.
func TestShardedMatchesUnshardedAlgorithms(t *testing.T) {
	ptsA := dataset.Uniform(901, 1200)
	ptsB := dataset.Uniform(902, 1200)
	algos := map[string]core.Algorithm{
		"naive": core.Naive, "exh": core.Exhaustive, "sim": core.Simple,
		"std": core.SortedDistances, "heap": core.Heap,
	}
	for name, algo := range algos {
		opts := core.Options{Algorithm: algo}
		want := runUnsharded(t, ptsA, ptsB, 10, opts)
		for _, tiles := range tileCounts {
			t.Run(name+"/tiles="+strconv.Itoa(tiles), func(t *testing.T) {
				res := runSharded(t, ptsA, ptsB, 10, opts, tiles, 4)
				comparePairs(t, want, res.Pairs)
			})
		}
	}
}

func TestShardedMatchesUnshardedMetrics(t *testing.T) {
	ptsA := dataset.Uniform(903, 1500)
	ptsB := dataset.Uniform(904, 1500)
	metrics := map[string]geom.Metric{"l2": geom.L2(), "l1": geom.L1(), "linf": geom.LInf()}
	for name, m := range metrics {
		t.Run(name, func(t *testing.T) {
			opts := core.Options{Algorithm: core.Heap, Metric: m}
			want := runUnsharded(t, ptsA, ptsB, 10, opts)
			res := runSharded(t, ptsA, ptsB, 10, opts, 7, 4)
			comparePairs(t, want, res.Pairs)
		})
	}
}

func TestShardedMatchesUnshardedK(t *testing.T) {
	ptsA := dataset.Uniform(905, 1500)
	ptsB := dataset.Uniform(906, 1500)
	for _, k := range []int{1, 10, 100} {
		t.Run("k="+strconv.Itoa(k), func(t *testing.T) {
			opts := core.Options{Algorithm: core.Heap}
			want := runUnsharded(t, ptsA, ptsB, k, opts)
			res := runSharded(t, ptsA, ptsB, k, opts, 7, 4)
			comparePairs(t, want, res.Pairs)
		})
	}
}

func TestShardedMatchesUnshardedParallelism(t *testing.T) {
	ptsA := dataset.Uniform(907, 1500)
	ptsB := dataset.Uniform(908, 1500)
	for _, par := range []int{1, 4} {
		t.Run("par="+strconv.Itoa(par), func(t *testing.T) {
			opts := core.Options{Algorithm: core.Heap, Parallelism: par}
			want := runUnsharded(t, ptsA, ptsB, 10, opts)
			res := runSharded(t, ptsA, ptsB, 10, opts, 7, 4)
			comparePairs(t, want, res.Pairs)
		})
	}
}

// TestShardedClusteredAndSkewed covers skewed tiles (clustered data)
// and empty shard sides (spatially disjoint sets: every tile holding A
// points on the left holds no B points, and vice versa).
func TestShardedClusteredAndSkewed(t *testing.T) {
	t.Run("clustered", func(t *testing.T) {
		ptsA := dataset.Clustered(909, 1500)
		ptsB := dataset.Clustered(910, 1500)
		opts := core.Options{Algorithm: core.Heap}
		want := runUnsharded(t, ptsA, ptsB, 10, opts)
		for _, tiles := range tileCounts {
			res := runSharded(t, ptsA, ptsB, 10, opts, tiles, 4)
			comparePairs(t, want, res.Pairs)
		}
	})
	t.Run("disjoint", func(t *testing.T) {
		ptsA := squeeze(dataset.Uniform(911, 1000), 0, 0.35)
		ptsB := squeeze(dataset.Uniform(912, 1000), 0.65, 1)
		opts := core.Options{Algorithm: core.Heap}
		want := runUnsharded(t, ptsA, ptsB, 10, opts)
		for _, tiles := range tileCounts {
			res, set := runShardedSet(t, ptsA, ptsB, 10, opts, tiles, 4)
			comparePairs(t, want, res.Pairs)
			if tiles > 1 {
				empty := false
				for _, sh := range set.shards {
					if sh.a.Len() == 0 || sh.b.Len() == 0 {
						empty = true
					}
				}
				if !empty {
					t.Fatalf("disjoint sets over %d tiles produced no one-sided shard", tiles)
				}
			}
		}
	})
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

// TestPartitionInvariants checks the partitioner preserves every item
// exactly once and produces the requested tile count.
func TestPartitionInvariants(t *testing.T) {
	ptsA := dataset.Clustered(913, 2000)
	ptsB := dataset.Uniform(914, 1000)
	for _, tiles := range tileCounts {
		set, err := Partition(items(ptsA), items(ptsB), Config{Tiles: tiles})
		if err != nil {
			t.Fatal(err)
		}
		if len(set.shards) != tiles {
			t.Fatalf("tiles: want %d, got %d", tiles, len(set.shards))
		}
		var na, nb int64
		for i, sh := range set.shards {
			na += sh.a.Len()
			nb += sh.b.Len()
			if sh.a.Len() > 0 && !sh.boundsA.Valid() || sh.b.Len() > 0 && !sh.boundsB.Valid() {
				t.Fatalf("shard %d holds points but has bounds %v / %v", i, sh.boundsA, sh.boundsB)
			}
		}
		if na != int64(len(ptsA)) || nb != int64(len(ptsB)) {
			t.Fatalf("partition lost items: A %d/%d, B %d/%d", na, len(ptsA), nb, len(ptsB))
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecutorPruning pins the deterministic pruning case: two tight
// clusters far apart, one worker, ascending MINMINDIST dispatch. The
// left cluster's join runs first (smallest tile-level MINMINDIST) and
// broadcasts its tiny best distance; the right cluster's internal gap
// is three times wider, so its shard pair — and both cross-cluster
// pairs — are pruned without dispatch.
func TestExecutorPruning(t *testing.T) {
	var ptsA, ptsB []geom.Point
	for i := 0; i < 50; i++ {
		d := float64(i) * 1e-4
		ptsA = append(ptsA, geom.Point{X: 0.1 + d, Y: 0.1}, geom.Point{X: 0.9 + d, Y: 0.9})
		ptsB = append(ptsB, geom.Point{X: 0.1 + d, Y: 0.1 + 1e-5}, geom.Point{X: 0.9 + d, Y: 0.9 + 3e-5})
	}
	set, err := Partition(items(ptsA), items(ptsB), Config{Tiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ex := Executor{Set: set, Workers: 1}
	res, err := ex.Run(1, core.Options{Algorithm: core.Heap})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlannedPairs != 4 {
		t.Fatalf("planned pairs: want 4, got %d", res.PlannedPairs)
	}
	if res.PrunedPairs != 3 {
		t.Fatalf("pruned pairs: want 3 (right cluster and both cross-cluster), got %d", res.PrunedPairs)
	}
	want := runUnsharded(t, ptsA, ptsB, 1, core.Options{Algorithm: core.Heap})
	comparePairs(t, want, res.Pairs)
}

func TestExecutorEmptyInput(t *testing.T) {
	set, err := Partition(nil, nil, Config{Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ex := Executor{Set: set}
	if _, err := ex.Run(3, core.Options{}); err != core.ErrEmptyInput {
		t.Fatalf("want ErrEmptyInput, got %v", err)
	}
}

func TestPartitionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := dataset.Uniform(915, 500)
	if _, err := PartitionContext(ctx, items(pts), items(pts), Config{Tiles: 4}); err == nil {
		t.Fatal("want context error, got nil")
	}
}

func TestExecutorCancelled(t *testing.T) {
	pts := dataset.Uniform(916, 500)
	set, err := Partition(items(pts), items(pts), Config{Tiles: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ex := Executor{Set: set}
	if _, err := ex.RunContext(ctx, 5, core.Options{}); err == nil {
		t.Fatal("want context error, got nil")
	}
}
