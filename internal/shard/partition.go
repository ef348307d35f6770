package shard

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Partition splits both item sets into cfg.Tiles spatial tiles and bulk
// loads one R-tree pair per tile. It is the context-free convenience
// wrapper; see PartitionContext.
func Partition(itemsA, itemsB []rtree.Item, cfg Config) (*Set, error) {
	return PartitionContext(context.Background(), itemsA, itemsB, cfg)
}

// PartitionContext splits both item sets into cfg.Tiles spatial tiles
// and bulk loads one R-tree pair (with a dedicated page file and buffer
// pool) per tile.
//
// The tile grid follows the STR recipe that the bulk loader itself
// uses, applied once to the union of both sets: ceil(sqrt(T)) columns
// are cut at X-quantiles of the combined centers, then each column is
// cut at Y-quantiles of the centers that fell in it. Cutting both sets
// with the same quantile boundaries keeps every A-tile spatially
// aligned with its B-tile, so the MINMINDIST between two tile MBRs is
// a faithful lower bound for every point pair in the shard product —
// the quantity the executor's plan pruning relies on. Quantiles of the
// union (rather than a fixed grid) keep shard populations balanced
// under skew; tiles that still end up without points of one set simply
// hold an empty tree on that side, and the executor plans no work for
// them.
//
// The O(n log n) STR sorts of every tile run in parallel goroutines
// (rtree.SortSTR touches only its slice); the page-writing bulk loads
// run sequentially afterwards, one tile at a time, checking ctx
// between builds.
func PartitionContext(ctx context.Context, itemsA, itemsB []rtree.Item, cfg Config) (*Set, error) {
	if cfg.Tiles == 0 {
		cfg.Tiles = 1
	}
	if cfg.Tiles < 1 {
		return nil, fmt.Errorf("shard: tile count %d < 1", cfg.Tiles)
	}

	// Phase timestamps are taken only when an explain capture is
	// attached, so the default path does no clock reads.
	var tPartition time.Time
	if cfg.Capture.Enabled() {
		tPartition = time.Now()
	}

	bucketsA, bucketsB := bucketize(itemsA, itemsB, cfg.Tiles)

	// Phase 1 (parallel, CPU only): STR-sort every tile's items. One
	// goroutine per tile sorts both sides; SortSTR never touches shared
	// state, so the only synchronization needed is the join below.
	var wg sync.WaitGroup
	for i := range bucketsA {
		wg.Add(1)
		go func(a, b []rtree.Item) {
			defer wg.Done()
			rtree.SortSTR(a)
			rtree.SortSTR(b)
		}(bucketsA[i], bucketsB[i])
	}
	wg.Wait()

	var tBuild time.Time
	if cfg.Capture.Enabled() {
		tBuild = time.Now()
		cfg.Capture.Phase("partition", tBuild.Sub(tPartition).Nanoseconds())
	}

	// Phase 2 (sequential, page writes): build each shard's tree pair.
	set := &Set{}
	for i := range bucketsA {
		if err := ctx.Err(); err != nil {
			return nil, errors.Join(err, set.Close())
		}
		sh := &shard{}
		var err error
		if sh.a, sh.fileA, err = buildTree(bucketsA[i], cfg.Tree); err != nil {
			return nil, errors.Join(err, set.Close())
		}
		if sh.b, sh.fileB, err = buildTree(bucketsB[i], cfg.Tree); err != nil {
			err = errors.Join(err, sh.fileA.Close())
			return nil, errors.Join(err, set.Close())
		}
		if sh.boundsA, err = sh.a.Bounds(); err == nil {
			sh.boundsB, err = sh.b.Bounds()
		}
		set.shards = append(set.shards, sh)
		if err != nil {
			return nil, errors.Join(err, set.Close())
		}
	}
	if cfg.Capture.Enabled() {
		cfg.Capture.Phase("build", time.Since(tBuild).Nanoseconds())
	}
	return set, nil
}

// buildTree bulk loads one shard-side tree over its own in-memory page
// file and sharded buffer pool. items must already be in SortSTR order.
func buildTree(items []rtree.Item, tc rtree.Config) (*rtree.Tree, *storage.MemFile, error) {
	pageSize := tc.PageSize
	if pageSize == 0 {
		pageSize = rtree.DefaultConfig().PageSize
	}
	file := storage.NewMemFile(pageSize)
	pool := storage.NewShardedBufferPool(file, bufferPages, poolShards, storage.LRU)
	t, err := rtree.New(pool, tc)
	if err == nil {
		err = t.BulkLoadSorted(items, fill)
	}
	if err != nil {
		return nil, nil, errors.Join(err, file.Close())
	}
	return t, file, nil
}

// bucketize assigns every item of both sets to one of tiles STR tiles:
// ceil(sqrt(tiles)) columns at X-quantiles of the combined centers,
// rows at per-column Y-quantiles, extra rows going to the leftmost
// columns. Both sets share the same boundaries.
func bucketize(itemsA, itemsB []rtree.Item, tiles int) ([][]rtree.Item, [][]rtree.Item) {
	if tiles == 1 {
		return [][]rtree.Item{append([]rtree.Item(nil), itemsA...)},
			[][]rtree.Item{append([]rtree.Item(nil), itemsB...)}
	}
	cols := 1
	for cols*cols < tiles {
		cols++
	}
	rowsPerCol := make([]int, cols)
	base, extra := tiles/cols, tiles%cols
	colStart := make([]int, cols+1)
	for c := range rowsPerCol {
		rowsPerCol[c] = base
		if c < extra {
			rowsPerCol[c]++
		}
		colStart[c+1] = colStart[c] + rowsPerCol[c]
	}

	centers := make([]geom.Point, 0, len(itemsA)+len(itemsB))
	for i := range itemsA {
		centers = append(centers, itemsA[i].Rect.Center())
	}
	for i := range itemsB {
		centers = append(centers, itemsB[i].Rect.Center())
	}

	xs := make([]float64, len(centers))
	for i, c := range centers {
		xs[i] = c.X
	}
	sort.Float64s(xs)
	xCuts := quantileCuts(xs, cols)

	// Column assignment, then per-column Y-quantiles over the combined
	// centers that landed there.
	colCenters := make([][]float64, cols)
	for _, c := range centers {
		colCenters[cutIndex(xCuts, c.X)] = append(colCenters[cutIndex(xCuts, c.X)], c.Y)
	}
	yCuts := make([][]float64, cols)
	for c, ys := range colCenters {
		sort.Float64s(ys)
		yCuts[c] = quantileCuts(ys, rowsPerCol[c])
	}

	tileOf := func(r geom.Rect) int {
		ctr := r.Center()
		c := cutIndex(xCuts, ctr.X)
		return colStart[c] + cutIndex(yCuts[c], ctr.Y)
	}
	bucketsA := make([][]rtree.Item, tiles)
	bucketsB := make([][]rtree.Item, tiles)
	for i := range itemsA {
		t := tileOf(itemsA[i].Rect)
		bucketsA[t] = append(bucketsA[t], itemsA[i])
	}
	for i := range itemsB {
		t := tileOf(itemsB[i].Rect)
		bucketsB[t] = append(bucketsB[t], itemsB[i])
	}
	return bucketsA, bucketsB
}

// quantileCuts returns parts-1 ascending cut values splitting the sorted
// values into parts roughly equal groups; group g is the half-open range
// cuts[g-1] <= v < cuts[g].
func quantileCuts(sorted []float64, parts int) []float64 {
	cuts := make([]float64, 0, parts-1)
	n := len(sorted)
	for g := 1; g < parts; g++ {
		idx := g * n / parts
		if idx >= n {
			idx = n - 1
		}
		if n == 0 {
			cuts = append(cuts, 0)
			continue
		}
		cuts = append(cuts, sorted[idx])
	}
	return cuts
}

// cutIndex returns the group of v under cuts — the number of cuts <= v
// — so a value equal to a cut lands in the right-hand group, matching
// quantileCuts's half-open ranges.
func cutIndex(cuts []float64, v float64) int {
	i := sort.SearchFloat64s(cuts, v)
	for i < len(cuts) && cuts[i] == v {
		i++
	}
	return i
}
