// Package bench is the experiment harness that regenerates every figure of
// the paper's evaluation (Sections 4 and 5): it builds the R*-trees for
// each workload (caching them across runs), configures the per-tree LRU
// buffers, runs the closest-pair algorithms, and prints the same rows and
// series the paper reports. The cmd/cpqbench executable and the
// repository-level Go benchmarks are thin wrappers around this package.
package bench

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/incremental"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// DataKind selects a workload generator.
type DataKind int

const (
	// UniformData is the paper's "random data following a uniform-like
	// distribution".
	UniformData DataKind = iota
	// RealData is the stand-in for the Sequoia California sites (see
	// DESIGN.md): a fixed clustered data set of 62,536 points.
	RealData
)

// String implements fmt.Stringer using the paper's labels.
func (k DataKind) String() string {
	switch k {
	case UniformData:
		return "U"
	case RealData:
		return "R"
	default:
		return fmt.Sprintf("DataKind(%d)", int(k))
	}
}

// DataSpec identifies one indexed data set: its generator, cardinality,
// seed, and the x translation that realizes a workspace overlap.
type DataSpec struct {
	Kind  DataKind
	N     int // cardinality before Lab scaling; RealData fixes 62,536
	Seed  int64
	Shift float64
}

// Lab builds and caches experiment trees and carries the run-time wiring
// of every query run on them. A Lab is not safe for concurrent use.
type Lab struct {
	// Config is the physical tree setup; zero value = the paper's
	// (1 KB pages, M=21, m=7).
	Config rtree.Config
	// Scale multiplies every cardinality (1.0 = the paper's sizes; the
	// quick mode of cpqbench and the Go benchmarks use 0.1). 0 means 1.0.
	Scale float64
	// BuildBuffer is the pool capacity (pages) used while building trees;
	// it is replaced by the per-run buffer before each measurement.
	// 0 means 512.
	BuildBuffer int

	// Ctx, when set, is threaded into every RunCore and RunIncremental
	// query: cpqbench -timeout puts a deadline here so a wall-clock budget
	// covers the whole experiment sweep. nil means context.Background().
	Ctx context.Context
	// Parallelism is the HEAP worker count of RunCore queries whose options
	// leave it zero (0 = the paper's sequential algorithm;
	// core.AutoParallelism = the facade's default, GOMAXPROCS where the
	// task engine wins): cpqbench -parallel re-runs every
	// experiment in parallel mode for disk-access-parity comparisons.
	Parallelism int
	// Explain attaches a fresh EXPLAIN capture to every RunCore query; each
	// snapshot replaces the previous one, so after a sweep LastExplain
	// returns the final query's plan + execution breakdown.
	Explain bool

	trees       map[DataSpec]*rtree.Tree
	totals      Totals
	lastExplain *explain.Explain
}

// NewLab returns a Lab with the paper's defaults at the given scale.
func NewLab(scale float64) *Lab {
	return &Lab{Config: rtree.DefaultConfig(), Scale: scale}
}

func (l *Lab) scale() float64 {
	if l.Scale <= 0 {
		return 1.0
	}
	return l.Scale
}

// ScaledN returns the effective cardinality for a nominal size.
func (l *Lab) ScaledN(n int) int {
	s := int(float64(n) * l.scale())
	if s < 200 {
		s = 200
	}
	return s
}

// Tree returns the (cached) tree for a data spec, building it by repeated
// insertion as in the paper.
func (l *Lab) Tree(spec DataSpec) (*rtree.Tree, error) {
	if l.trees == nil {
		l.trees = make(map[DataSpec]*rtree.Tree)
	}
	if t, ok := l.trees[spec]; ok {
		return t, nil
	}
	points := l.generate(spec)
	buildBuf := l.BuildBuffer
	if buildBuf == 0 {
		buildBuf = 512
	}
	cfg := l.Config
	if cfg.PageSize == 0 {
		cfg = rtree.DefaultConfig()
	}
	pool := storage.NewBufferPool(storage.NewMemFile(cfg.PageSize), buildBuf)
	t, err := rtree.New(pool, cfg)
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		if err := t.InsertPoint(p, int64(i)); err != nil {
			return nil, fmt.Errorf("bench: building %+v: %w", spec, err)
		}
	}
	l.trees[spec] = t
	return t, nil
}

func (l *Lab) generate(spec DataSpec) []geom.Point {
	var pts []geom.Point
	switch spec.Kind {
	case RealData:
		n := l.ScaledN(dataset.RealCardinality)
		pts = dataset.Clustered(62536, n)
	default:
		pts = dataset.Uniform(spec.Seed, l.ScaledN(spec.N))
	}
	if spec.Shift != 0 {
		for i := range pts {
			pts[i] = pts[i].Add(spec.Shift, 0)
		}
	}
	return pts
}

// Pair returns the two trees of a workload: left in the unit workspace,
// right shifted so the workspaces overlap by the given portion.
func (l *Lab) Pair(left, right DataSpec, overlap float64) (*rtree.Tree, *rtree.Tree, error) {
	left.Shift = 0
	right.Shift = 1 - overlap
	ta, err := l.Tree(left)
	if err != nil {
		return nil, nil, err
	}
	tb, err := l.Tree(right)
	if err != nil {
		return nil, nil, err
	}
	return ta, tb, nil
}

// prepare configures the paper's buffer scheme for one measured run: an
// LRU buffer of B pages split evenly between the two trees, cold caches
// (node caches included, when attached), zeroed counters.
func prepare(ta, tb *rtree.Tree, bufferPages int) {
	half := bufferPages / 2
	ta.Pool().Resize(half)
	tb.Pool().Resize(half)
	ta.Pool().Clear()
	tb.Pool().Clear()
	ta.Pool().ResetStats()
	tb.Pool().ResetStats()
	for _, tr := range []*rtree.Tree{ta, tb} {
		if c := tr.NodeCache(); c != nil {
			c.Clear()
			c.ResetStats()
		}
	}
}

// Totals aggregates the cost of every RunCore / RunIncremental call a Lab
// has made since its last ResetTotals. cpqbench's -json mode snapshots it
// per experiment.
type Totals struct {
	Queries         int64   `json:"queries"`
	Accesses        int64   `json:"accesses"`
	NodePairs       int64   `json:"node_pairs"`
	PointPairs      int64   `json:"point_pairs"`
	NodeCacheHits   int64   `json:"node_cache_hits"`
	NodeCacheMisses int64   `json:"node_cache_misses"`
	NodeCacheRatio  float64 `json:"node_cache_hit_ratio"`
}

// ResetTotals zeroes the Lab's aggregate counters.
func (l *Lab) ResetTotals() { l.totals = Totals{} }

// Totals snapshots the Lab's aggregate counters.
func (l *Lab) Totals() Totals {
	t := l.totals
	if lookups := t.NodeCacheHits + t.NodeCacheMisses; lookups > 0 {
		t.NodeCacheRatio = float64(t.NodeCacheHits) / float64(lookups)
	}
	return t
}

// ctx returns the context of the Lab's queries.
func (l *Lab) ctx() context.Context {
	if l.Ctx == nil {
		return context.Background()
	}
	return l.Ctx
}

// LastExplain returns the explain snapshot of the Lab's most recent
// RunCore query captured under Explain; nil if none ran.
func (l *Lab) LastExplain() *explain.Explain { return l.lastExplain }

// RunCore executes one K-CPQ with one of the paper's algorithms under the
// given buffer size and returns its statistics. The Lab's Parallelism
// fills the option when the caller left it zero, and Explain attaches a
// fresh capture when the caller set none.
func (l *Lab) RunCore(ta, tb *rtree.Tree, k int, opts core.Options, bufferPages int) (core.Stats, error) {
	prepare(ta, tb, bufferPages)
	if opts.Parallelism == 0 {
		opts.Parallelism = l.Parallelism
	}
	if l.Explain && opts.Explain == nil {
		opts.Explain = new(explain.Capture)
	}
	_, stats, err := core.KClosestPairsContext(l.ctx(), ta, tb, k, opts)
	if l.Explain {
		l.lastExplain = opts.Explain.Snapshot()
	}
	if err == nil {
		l.totals.Queries++
		l.totals.Accesses += stats.Accesses()
		l.totals.NodePairs += stats.NodePairsProcessed
		l.totals.PointPairs += stats.PointPairsCompared
		l.totals.NodeCacheHits += stats.NodeCacheHits
		l.totals.NodeCacheMisses += stats.NodeCacheMisses
	}
	return stats, err
}

// RunIncremental executes one K-bounded incremental distance join under
// the given buffer size and returns its statistics.
func (l *Lab) RunIncremental(ta, tb *rtree.Tree, k int, opts incremental.Options, bufferPages int) (incremental.Stats, error) {
	prepare(ta, tb, bufferPages)
	_, stats, err := incremental.GetKContext(l.ctx(), ta, tb, k, opts)
	if err == nil {
		l.totals.Queries++
		l.totals.Accesses += stats.Accesses()
	}
	return stats, err
}
