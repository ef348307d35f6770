package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// TestExecutorExplainCapture runs a sharded query with an explain capture
// attached as both tracer and capture, and checks the acceptance
// property: the per-shard-pair rows sum exactly to the executor's
// planned/pruned counts, the per-shard attribution matches, the phase
// breakdown covers dispatch/join/merge, and every shard-join span
// carries the executor span's trace id.
func TestExecutorExplainCapture(t *testing.T) {
	ptsA := dataset.Uniform(921, 1200)
	ptsB := dataset.Uniform(922, 1200)
	c := explain.New(nil)
	set, err := Partition(items(ptsA), items(ptsB), Config{Tiles: 4, Capture: c})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	ex := Executor{Set: set, Workers: 4, Capture: c}
	res, err := ex.Run(10, core.Options{Algorithm: core.Heap, Tracer: c})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()

	// Every planned pair must appear exactly once, as joined or pruned.
	if len(snap.Exec.ShardPairs) != res.PlannedPairs {
		t.Fatalf("shard-pair rows: want %d (planned), got %d", res.PlannedPairs, len(snap.Exec.ShardPairs))
	}
	var joined, pruned int
	for _, p := range snap.Exec.ShardPairs {
		switch p.Status {
		case explain.StatusJoined:
			joined++
			if p.DurationNS <= 0 {
				t.Errorf("joined pair [%d,%d] has no duration", p.A, p.B)
			}
		case explain.StatusPruned:
			pruned++
			if p.MinMinDist <= p.Bound && p.Bound != explain.Unbounded {
				t.Errorf("pruned pair [%d,%d] with minmin %g <= bound %g", p.A, p.B, p.MinMinDist, p.Bound)
			}
		default:
			t.Fatalf("pair [%d,%d] has status %q", p.A, p.B, p.Status)
		}
	}
	if pruned != res.PrunedPairs || joined != res.PlannedPairs-res.PrunedPairs {
		t.Fatalf("rows: %d joined + %d pruned, executor reported %d planned %d pruned",
			joined, pruned, res.PlannedPairs, res.PrunedPairs)
	}

	// Per-shard attribution mirrors the executor's report rows.
	if len(snap.Exec.Shards) != set.Tiles() {
		t.Fatalf("shard stats: want %d rows, got %d", set.Tiles(), len(snap.Exec.Shards))
	}
	for i, s := range snap.Exec.Shards {
		row := res.Shards[i]
		if s.Planned != int64(row.PlannedPairs) || s.Pruned != int64(row.PrunedPairs) {
			t.Errorf("shard %d: stats %+v vs report %+v", i, s, row)
		}
		if s.Joined != s.Planned-s.Pruned {
			t.Errorf("shard %d: joined %d != planned %d - pruned %d", i, s.Joined, s.Planned, s.Pruned)
		}
	}

	// Phase breakdown: partition and build come from the partitioner,
	// dispatch/join/merge from the executor, in order.
	var names []string
	for _, p := range snap.Exec.Phases {
		names = append(names, p.Name)
	}
	want := []string{"partition", "build", "dispatch", "join", "merge"}
	if len(names) != len(want) {
		t.Fatalf("phases = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("phases = %v, want %v", names, want)
		}
	}

	// Span tree: one root (the executor span), every child a shard join
	// under the same trace id.
	if len(snap.Exec.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1: %+v", len(snap.Exec.Spans), snap.Exec.Spans)
	}
	root := snap.Exec.Spans[0]
	if root.Trace != root.Span {
		t.Fatalf("executor span is not the trace root: %+v", root)
	}
	if len(root.Children) != joined {
		t.Fatalf("span children: want %d (one per dispatched join), got %d", joined, len(root.Children))
	}
	for _, child := range root.Children {
		if child.Trace != root.Trace {
			t.Errorf("join span %d carries trace %d, want %d", child.Span, child.Trace, root.Trace)
		}
		if child.Parent != root.Span {
			t.Errorf("join span %d has parent %d, want %d", child.Span, child.Parent, root.Span)
		}
	}

	// Totals.
	if snap.Exec.Results != len(res.Pairs) || snap.Exec.Stats.NodePairsProcessed != res.Stats.NodePairsProcessed {
		t.Fatalf("totals: snapshot %d results / %d node pairs, executor %d / %d",
			snap.Exec.Results, snap.Exec.Stats.NodePairsProcessed, len(res.Pairs), res.Stats.NodePairsProcessed)
	}

	// The snapshot must survive its canonical round trip.
	if _, err := snap.JSON(); err != nil {
		t.Fatalf("canonical JSON: %v", err)
	}
}

// TestShardDisabledHooksZeroAlloc pins the disabled-hook discipline for
// this package's capture points: with a nil span and a nil capture, the
// executor's emit helpers and capture calls allocate nothing.
func TestShardDisabledHooksZeroAlloc(t *testing.T) {
	var sp *obs.Span
	var c *explain.Capture
	allocs := testing.AllocsPerRun(100, func() {
		traceShardPlan(sp, 7)
		traceShardPruned(sp, 1, 2, 4, 0.5)
		traceShardJoin(sp, 1, 2, 4, 0.25, 3)
		traceExecEnd(sp, 0.25, 10, "")
		c.Phase("join", 123)
		c.AddShardPair(explain.ShardPair{A: 1, B: 2, Status: explain.StatusPruned})
		c.SetShards(nil)
		_ = c.Enabled()
		_ = sp.Context()
	})
	if allocs != 0 {
		t.Fatalf("disabled hooks allocated %.1f/op, want 0", allocs)
	}
}

// TestExecutorMetricsShards checks the per-shard labeled counters reach
// the registry with one shard label per tile.
func TestExecutorMetricsShards(t *testing.T) {
	ptsA := dataset.Uniform(925, 600)
	ptsB := dataset.Uniform(926, 600)
	set, err := Partition(items(ptsA), items(ptsB), Config{Tiles: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	reg := obs.NewMetrics()
	em := obs.NewEngineMetrics(reg)
	ex := Executor{Set: set, Workers: 2}
	res, err := ex.Run(5, core.Options{Algorithm: core.Heap, Metrics: em})
	if err != nil {
		t.Fatal(err)
	}
	var planned int64
	for shardID := 0; shardID < set.Tiles(); shardID++ {
		l := obs.Label{Key: "shard", Value: string(rune('0' + shardID))}
		planned += reg.Counter("cpq_shard_pairs_planned_total", "", l).Value()
	}
	var wantPlanned int64
	for _, row := range res.Shards {
		wantPlanned += int64(row.PlannedPairs)
	}
	if planned != wantPlanned {
		t.Fatalf("labeled planned counters sum to %d, report rows to %d", planned, wantPlanned)
	}
}
