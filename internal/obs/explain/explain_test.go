package explain

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// sampleExplain builds a representative snapshot covering every section of
// the model, shared by the golden and render tests.
func sampleExplain() *Explain {
	return &Explain{
		Plan: Plan{
			Label:     "HEAP k=8 shards=4",
			Algorithm: "HEAP",
			K:         8,
			Workers:   4,
			Shards:    4,
			Tiles: []Tile{
				{Index: 0, MinX: 0, MinY: 0, MaxX: 0.25, MaxY: 1},
				{Index: 1, MinX: 0.25, MinY: 0, MaxX: 0.5, MaxY: 1},
				{Index: 2, MinX: 0.5, MinY: 0, MaxX: 0.75, MaxY: 1},
				{Index: 3, Empty: true},
			},
		},
		Exec: Exec{
			DurationNS: 12_345_678,
			Phases: []Phase{
				{Name: "partition", DurationNS: 1_200_000},
				{Name: "build", DurationNS: 3_400_000},
				{Name: "dispatch", DurationNS: 100_000},
				{Name: "join", DurationNS: 6_500_000},
				{Name: "merge", DurationNS: 200_000},
			},
			ShardPairs: []ShardPair{
				{A: 0, B: 0, Status: StatusJoined, MinMinDist: 0, Bound: Unbounded,
					Worker: 1, DurationNS: 2_000_000, Results: 8, Accesses: 120, NodePairs: 64, PointPairs: 512},
				{A: 0, B: 1, Status: StatusJoined, MinMinDist: 0.001, Bound: 0.02,
					Worker: 2, DurationNS: 1_500_000, Results: 3, Accesses: 80, NodePairs: 40, PointPairs: 300},
				{A: 2, B: 3, Status: StatusPruned, MinMinDist: 0.5, Bound: 0.002},
			},
			Shards: []ShardStat{
				{Shard: 0, Planned: 2, Pruned: 0, Joined: 2, Accesses: 200, CacheHits: 10, CacheMisses: 2},
				{Shard: 1, Planned: 1, Pruned: 0, Joined: 1, Accesses: 80},
				{Shard: 2, Planned: 1, Pruned: 1, Joined: 0},
				{Shard: 3, Planned: 1, Pruned: 1, Joined: 0},
			},
			Bounds: []BoundStep{
				{Nanos: 800_000, Old: Unbounded, New: 0.02, Source: "kheap", Span: 18},
				{Nanos: 2_100_000, Old: 0.02, New: 0.002, Source: "merge", Span: 17},
			},
			Events: []KindCount{
				{Kind: "query_start", N: 3},
				{Kind: "node_expanded", N: 104},
				{Kind: "bound_tightened", N: 2},
			},
			Stats: Stats{
				Accesses: 280, ReadsP: 150, ReadsQ: 130, BufferHits: 900,
				NodePairsProcessed: 104, SubPairsGenerated: 800, SubPairsPruned: 512,
				PointPairsCompared: 812, MaxQueueSize: 37, NodeCacheHits: 10, NodeCacheMisses: 2,
			},
			Results:     8,
			KthDistance: 0.00132,
			Spans: []SpanNode{{
				Span: 17, Trace: 17, Label: "HEAP k=8 shards=4", DurationNS: 12_000_000,
				Events: 9, FinalBound: 0.002, Results: 8,
				Children: []SpanNode{
					{Span: 18, Trace: 17, Parent: 17, Label: "HEAP k=8", DurationNS: 2_000_000,
						Events: 60, FinalBound: 0.02, Results: 8},
					{Span: 19, Trace: 17, Parent: 17, Label: "HEAP k=8", DurationNS: 1_500_000,
						Events: 44, FinalBound: 0.002, Results: 3},
				},
			}},
		},
	}
}

// TestExplainGoldenRoundTrip pins the canonical JSON form byte for byte
// against the committed golden file and proves the encoding is stable
// under a decode/encode cycle.
func TestExplainGoldenRoundTrip(t *testing.T) {
	e := sampleExplain()
	got, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "golden.json")
	if os.Getenv("EXPLAIN_GOLDEN_REWRITE") != "" {
		if err := os.WriteFile(goldenPath, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with EXPLAIN_GOLDEN_REWRITE=1 go test ./internal/obs/explain -run TestExplainGoldenRoundTrip)", err)
	}
	want = bytes.TrimRight(want, "\n")
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical JSON drifted from testdata/golden.json:\n got: %s\nwant: %s", got, want)
	}

	// Round trip: decode the golden bytes and re-encode; byte-stable means
	// the two encodings are identical.
	var back Explain
	if err := json.Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	again, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("round trip not byte-stable:\n got: %s\nwant: %s", again, want)
	}
}

// TestCaptureSpanForest drives a Capture as a Tracer through a sharded
// query shape and checks the rebuilt span tree and bound trajectory.
func TestCaptureSpanForest(t *testing.T) {
	c := New(nil)
	root := obs.StartSpan(c, "query")
	rc := root.Context()
	child := obs.StartSpanFrom(c, rc, "join-0")
	child.Emit(obs.Event{Kind: obs.EvBoundTightened, Old: math.Inf(1), New: 0.5, Source: obs.SourceKHeap})
	child.End(0.5, 3, "")
	root.End(0.25, 8, "")

	snap := c.Snapshot()
	if len(snap.Exec.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1: %+v", len(snap.Exec.Spans), snap.Exec.Spans)
	}
	q := snap.Exec.Spans[0]
	if q.Trace != rc.TraceID || q.Span != rc.SpanID {
		t.Fatalf("root span = %+v, want trace %d span %d", q, rc.TraceID, rc.SpanID)
	}
	if len(q.Children) != 1 || q.Children[0].Label != "join-0" || q.Children[0].Trace != rc.TraceID {
		t.Fatalf("children = %+v", q.Children)
	}
	if q.FinalBound != 0.25 || q.Results != 8 {
		t.Fatalf("root end not captured: %+v", q)
	}
	if len(snap.Exec.Bounds) != 1 || snap.Exec.Bounds[0].Old != Unbounded || snap.Exec.Bounds[0].New != 0.5 {
		t.Fatalf("bounds = %+v, want one step inf→0.5", snap.Exec.Bounds)
	}
	if snap.Exec.Bounds[0].Source != "kheap" {
		t.Fatalf("bound source = %q", snap.Exec.Bounds[0].Source)
	}
}

// TestCaptureTee checks a user tracer still sees every event under
// -explain.
func TestCaptureTee(t *testing.T) {
	var got []obs.Event
	tee := tracerFunc(func(e obs.Event) { got = append(got, e) })
	c := New(tee)
	s := obs.StartSpan(c, "q")
	s.End(0, 0, "")
	if len(got) != 2 {
		t.Fatalf("tee saw %d events, want 2", len(got))
	}
}

type tracerFunc func(obs.Event)

func (f tracerFunc) Event(e obs.Event) { f(e) }

// TestNilCaptureZeroAlloc pins the disabled-hook discipline: every method
// on a nil *Capture is a no-op and allocates nothing.
func TestNilCaptureZeroAlloc(t *testing.T) {
	var c *Capture
	if c.Enabled() {
		t.Fatal("nil capture reports enabled")
	}
	if c.Snapshot() != nil {
		t.Fatal("nil capture returned a snapshot")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Event(obs.Event{Kind: obs.EvNodeExpanded})
		c.SetPlan(Plan{})
		c.Phase("join", 1)
		c.AddShardPair(ShardPair{A: 1, B: 2})
		c.SetShards(nil)
		c.SetResult(1, Stats{}, 1, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil capture allocated %.1f/op, want 0", allocs)
	}
}

// TestRender sanity-checks the text tree against the sample snapshot.
func TestRender(t *testing.T) {
	out := sampleExplain().Render()
	for _, want := range []string{
		"QUERY HEAP k=8 shards=4",
		"plan",
		"algorithm: HEAP  k=8  workers=4",
		"shards: 4 tiles",
		"tile 3: (empty)",
		"execution",
		"phases: partition 1.2ms",
		"shard pairs: 3 planned = 2 joined + 1 pruned",
		"[2,3] pruned",
		"bound trajectory: 2 tightenings, ∞ → 0.002",
		"stats: 280 accesses",
		"results: 8 pairs",
		"trace 17 · span 17",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	if (*Explain)(nil).Render() != "" {
		t.Error("nil render must be empty")
	}
}

// TestKey pins the non-finite sanitizer.
func TestKey(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if Key(v) != Unbounded {
			t.Errorf("Key(%v) = %v, want %v", v, Key(v), float64(Unbounded))
		}
	}
	if Key(0.5) != 0.5 || Key(0) != 0 {
		t.Error("Key must pass finite values through")
	}
}

// FuzzExplainRoundTrip feeds arbitrary JSON through the model and demands
// the canonical encoding be a fixed point: decode → encode → decode →
// encode must reproduce the first encoding byte for byte.
func FuzzExplainRoundTrip(f *testing.F) {
	seed, err := sampleExplain().JSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"plan":{"label":"STD k=1","algorithm":"STD","k":1,"workers":1},"exec":{"duration_ns":1,"stats":{"accesses":2,"reads_p":1,"reads_q":1,"buffer_hits":0,"node_pairs":1,"sub_pairs_generated":0,"sub_pairs_pruned":0,"point_pairs":4,"max_queue_size":0,"node_cache_hits":0,"node_cache_misses":0},"results":1,"kth_distance":0.25}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var e Explain
		if err := json.Unmarshal(data, &e); err != nil {
			t.Skip()
		}
		first, err := e.JSON()
		if err != nil {
			// Hostile input can smuggle non-finite floats only through
			// strings; Go numbers parse finite, so encode must succeed.
			t.Skip()
		}
		var back Explain
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("canonical form does not decode: %v\n%s", err, first)
		}
		second, err := back.JSON()
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("canonical encoding is not a fixed point:\n1: %s\n2: %s", first, second)
		}
	})
}
