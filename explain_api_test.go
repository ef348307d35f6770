package cpq

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs/explain"
)

// TestExplainUnsharded checks the monolithic EXPLAIN path: results are
// bit-identical to the plain query, the plan carries the resolved knobs,
// and the execution totals mirror the stats. Both calls pass
// WithParallelism(1): the stats compared include disk accesses, which
// repeat exactly only on the sequential path.
func TestExplainUnsharded(t *testing.T) {
	p, err := BuildIndex(randomPoints(61, 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(62, 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	want, wantStats, err := KClosestPairs(p, q, 10, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, rep, err := Explain(p, q, 10, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result length: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if math.Float64bits(want[i].Dist) != math.Float64bits(got[i].Dist) {
			t.Fatalf("pair %d: distance differs under explain: %v vs %v", i, want[i].Dist, got[i].Dist)
		}
	}
	if gotStats != wantStats {
		t.Fatalf("explain changed the query's counters:\n got %+v\nwant %+v", gotStats, wantStats)
	}

	if rep.Plan.Algorithm != "HEAP" || rep.Plan.K != 10 || rep.Plan.Workers != 1 {
		t.Fatalf("plan: %+v", rep.Plan)
	}
	if rep.Exec.Results != len(got) || rep.Exec.Stats.NodePairsProcessed != gotStats.NodePairsProcessed {
		t.Fatalf("execution totals: %d results / %d node pairs, stats say %d / %d",
			rep.Exec.Results, rep.Exec.Stats.NodePairsProcessed, len(got), gotStats.NodePairsProcessed)
	}
	if len(rep.Exec.Phases) != 1 || len(rep.Exec.Bounds) == 0 {
		t.Fatalf("got phases %+v and %d bound steps, want one join phase and a trajectory",
			rep.Exec.Phases, len(rep.Exec.Bounds))
	}
	if !strings.Contains(rep.Render(), "QUERY") {
		t.Fatalf("render has no header:\n%s", rep.Render())
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ExplainReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	raw2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, raw2) {
		t.Fatal("explain JSON is not byte-stable across a round trip")
	}
}

// TestExplainTotalsMatchStats holds the EXPLAIN report to the query's own
// counters, bichromatic and self, sequential and on four workers: its
// totals equal the returned Stats field for field, and its K-th distance
// is the last pair's, bit for bit.
func TestExplainTotalsMatchStats(t *testing.T) {
	p, err := BuildIndex(randomPoints(73, 2000, 0), WithNodeCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(74, 2000, 0), WithNodeCache(64))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const k = 25
	for _, row := range []struct {
		name string
		run  func(opts ...QueryOption) ([]Pair, Stats, error)
	}{
		{"KClosestPairs", func(o ...QueryOption) ([]Pair, Stats, error) { return KClosestPairs(p, q, k, o...) }},
		{"SelfKClosestPairs", func(o ...QueryOption) ([]Pair, Stats, error) { return SelfKClosestPairs(p, k, o...) }},
	} {
		for _, workers := range []int{1, 4} {
			c := NewExplainCapture(nil)
			pairs, stats, err := row.run(WithExplain(c), WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			rep := c.Snapshot()
			if rep.Plan.Workers != workers || len(pairs) != k {
				t.Fatalf("%s W=%d: plan ran %d workers and returned %d pairs", row.name, workers, rep.Plan.Workers, len(pairs))
			}
			if stats.NodeCacheHits == 0 || stats.Accesses() == 0 {
				t.Fatalf("%s W=%d: %+v leaves the cache or access fields unchecked", row.name, workers, stats)
			}
			want := explain.Stats{
				Accesses:           stats.Accesses(),
				ReadsP:             stats.IOP.Reads,
				ReadsQ:             stats.IOQ.Reads,
				BufferHits:         stats.IOP.Hits + stats.IOQ.Hits,
				NodePairsProcessed: stats.NodePairsProcessed,
				SubPairsGenerated:  stats.SubPairsGenerated,
				SubPairsPruned:     stats.SubPairsPruned,
				PointPairsCompared: stats.PointPairsCompared,
				MaxQueueSize:       stats.MaxQueueSize,
				NodeCacheHits:      stats.NodeCacheHits,
				NodeCacheMisses:    stats.NodeCacheMisses,
			}
			if rep.Exec.Stats != want {
				t.Errorf("%s W=%d: explain totals\n %+v\nStats say\n %+v", row.name, workers, rep.Exec.Stats, want)
			}
			if kth := pairs[len(pairs)-1].Dist; math.Float64bits(rep.Exec.KthDistance) != math.Float64bits(kth) {
				t.Errorf("%s W=%d: explain K-th distance %v, last pair's %v", row.name, workers, rep.Exec.KthDistance, kth)
			}
		}
	}
}

// TestExplainSharded checks EXPLAIN under the deprecated WithShards, a
// no-op: the query runs as it does without it, as one "join" phase with no
// tile plan, on the workers the default picks, and returns the same pairs.
func TestExplainSharded(t *testing.T) {
	p, err := BuildIndex(randomPoints(63, 900, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(64, 900, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	want, _, wantRep, err := Explain(p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, _, rep, err := Explain(p, q, 10, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if rep.Plan != wantRep.Plan {
		t.Fatalf("plan %+v, want the default's %+v", rep.Plan, wantRep.Plan)
	}
	if len(rep.Exec.Phases) != 1 || rep.Exec.Phases[0].Name != "join" {
		t.Fatalf("phases = %+v, want one join phase", rep.Exec.Phases)
	}
}

// TestNewExplainCaptureTakesOnlyNil: the argument kept for source
// compatibility accepts nil alone.
func TestNewExplainCaptureTakesOnlyNil(t *testing.T) {
	if NewExplainCapture(nil) == nil {
		t.Fatal("NewExplainCapture(nil) returned nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewExplainCapture with a non-nil argument did not panic")
		}
	}()
	NewExplainCapture(struct{}{})
}

// TestWorkersOnlyForParallelHeap pins where a query may claim workers: the
// explain plan's label and worker count say "par" and a count above one
// only for the HEAP algorithm at Parallelism N > 1. The recursive
// algorithms run on one goroutine whatever the knob says.
func TestWorkersOnlyForParallelHeap(t *testing.T) {
	p, err := BuildIndex(randomPoints(71, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(72, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	for _, c := range []struct {
		opts    []QueryOption
		label   string
		workers int
	}{
		{[]QueryOption{WithAlgorithm(SortedDistancesAlgorithm), WithParallelism(4)}, "STD k=2", 1},
		{[]QueryOption{WithAlgorithm(SimpleAlgorithm), WithParallelism(0)}, "SIM k=2", 1},
		{[]QueryOption{WithParallelism(1)}, "HEAP k=2", 1},
		{[]QueryOption{WithParallelism(4)}, "HEAP k=2 par=4", 4},
	} {
		_, _, rep, err := Explain(p, q, 2, c.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Plan.Label != c.label || rep.Plan.Workers != c.workers {
			t.Errorf("plan says %q with %d workers, want %q with %d", rep.Plan.Label, rep.Plan.Workers, c.label, c.workers)
		}
	}
}
