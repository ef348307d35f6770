// Package shard runs K-CPQ as scatter-gather over spatial tiles: an
// STR-order range partitioner splits both data sets into T tiles with
// shared quantile boundaries, each tile getting one R-tree pair with a
// dedicated buffer pool, and a scatter-gather executor joins the shard
// pairs concurrently, pruned by MINMINDIST between tile MBRs and coupled
// through one tighten-only bound (bound.Shared). Only the benchmark's
// probes call it; the facade's queries run the parallel engine on the
// indexes' own trees (DESIGN.md §13).
package shard

import (
	"errors"

	"repro/internal/geom"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// The physical layout every shard tree shares: the buffer-pool capacity
// in pages, the lock-stripe count of each pool (shard joins run
// concurrently and two joins may share one side's pool, so the pools
// must be striped for the View read path) and the STR bulk-load fill
// factor. No decoded-node cache is attached, which keeps the paper's disk
// accounting exact.
const (
	bufferPages = 256
	poolShards  = 8
	fill        = 0.7
)

// Config fixes the tiling of a shard set.
type Config struct {
	// Tiles is the number of spatial tiles T (>= 1); 0 means 1.
	Tiles int
	// Tree is the per-shard R-tree configuration; the zero value means
	// rtree.DefaultConfig (the paper's 1 KB pages, M=21, m=7).
	Tree rtree.Config
	// Capture, when non-nil, receives the partitioner's phase timings
	// (partition, build) for EXPLAIN output. nil — the default — skips
	// all timing work.
	Capture *explain.Capture
}

// shard is one spatial tile: an R-tree over each data set's points that
// fall inside the tile, each on its own page file and buffer pool. A tree
// is empty (Len() == 0) when no points of its set fall in the tile.
type shard struct {
	a, b *rtree.Tree
	// boundsA/boundsB are the root MBRs, cached at build time for
	// planning (MINMINDIST between tile MBRs).
	boundsA, boundsB geom.Rect

	fileA, fileB *storage.MemFile
}

// Set is a complete partitioning: Config.Tiles shards covering both
// data sets. The shard products tile the full cross product A×B, so
// joining every shard pair and merging top-Ks reproduces the monolithic
// join.
type Set struct {
	shards []*shard
}

// Close releases every shard's page files. The set is unusable
// afterwards.
func (s *Set) Close() error {
	var errs []error
	for _, sh := range s.shards {
		if sh.fileA != nil {
			errs = append(errs, sh.fileA.Close())
		}
		if sh.fileB != nil {
			errs = append(errs, sh.fileB.Close())
		}
	}
	return errors.Join(errs...)
}
