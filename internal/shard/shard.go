// Package shard runs K-CPQ as scatter-gather over spatial tiles: an
// STR-order range partitioner splits both data sets into T tiles with
// shared quantile boundaries, each tile getting one R-tree pair with a
// dedicated buffer pool (and optional decoded-node cache), and a
// scatter-gather executor joins the shard pairs concurrently, pruned by
// MINMINDIST between tile MBRs and coupled through a broadcast
// tighten-only bound (core.SharedBound) — the distributed analogue of
// the parallel engine's per-query atomic bound (DESIGN.md §13).
package shard

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Config fixes the physical layout of a shard set.
type Config struct {
	// Tiles is the number of spatial tiles T (>= 1).
	Tiles int
	// Tree is the per-shard R-tree configuration; the zero value means
	// rtree.DefaultConfig (the paper's 1 KB pages, M=21, m=7).
	Tree rtree.Config
	// BufferPages is the buffer-pool capacity (pages) of each shard tree;
	// 0 means 256.
	BufferPages int
	// PoolShards is the lock-stripe count of each buffer pool; 0 means 8.
	// Shard joins run concurrently and two joins may share one side's
	// pool, so the pools must be sharded for the View read path.
	PoolShards int
	// NodeCache is the decoded-node cache capacity (nodes) attached to
	// each shard tree; 0 — the default — attaches none, keeping the
	// paper's disk accounting exact.
	NodeCache int
	// Fill is the STR bulk-load fill factor in (0, 1]; 0 means 0.7.
	Fill float64
	// Capture, when non-nil, receives the partitioner's phase timings
	// (partition, build) for EXPLAIN output. nil — the default — skips
	// all timing work.
	Capture *explain.Capture
}

func (c *Config) fillDefaults() {
	if c.Tiles == 0 {
		c.Tiles = 1
	}
	if c.BufferPages == 0 {
		c.BufferPages = 256
	}
	if c.PoolShards == 0 {
		c.PoolShards = 8
	}
	if c.Fill == 0 {
		c.Fill = 0.7
	}
}

func (c Config) validate() error {
	if c.Tiles < 1 {
		return fmt.Errorf("shard: tile count %d < 1", c.Tiles)
	}
	if c.BufferPages < 0 {
		return fmt.Errorf("shard: negative buffer capacity %d", c.BufferPages)
	}
	if c.Fill <= 0 || c.Fill > 1 {
		return fmt.Errorf("shard: fill factor %g out of (0, 1]", c.Fill)
	}
	return nil
}

// Shard is one spatial tile: an R-tree over each data set's points that
// fall inside the tile, each on its own page file and buffer pool.
type Shard struct {
	// ID is the shard's index in STR tile order (column-major X, then Y).
	ID int
	// Tile is the union MBR of the shard's data from both sets (empty
	// when the tile holds no points at all) — the per-shard row the
	// bench JSON reports.
	Tile geom.Rect
	// A and B are the shard's trees over the two data sets. A tree is
	// empty (Len() == 0) when no points of its set fall in the tile.
	A, B *rtree.Tree

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
	cfg    Config
	shards []*Shard
}

// Shards returns the shard list in tile order.
func (s *Set) Shards() []*Shard { return s.shards }

// Tiles returns the tile count T.
func (s *Set) Tiles() int { return len(s.shards) }

// Config returns the configuration the set was built with.
func (s *Set) Config() Config { return s.cfg }

// Close releases every shard's page files. The set is unusable
// afterwards.
func (s *Set) Close() error {
	var errs []error
	//lint:ignore cancelpoll teardown loop bounded by the tile count, no context at Close time
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
