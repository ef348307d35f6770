package explain

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// sampleExplain builds a representative snapshot covering every section of
// the model, shared by the golden and render tests.
func sampleExplain() *Explain {
	return &Explain{
		Plan: Plan{
			Label:     "HEAP k=8 par=4",
			Algorithm: "HEAP",
			K:         8,
			Workers:   4,
		},
		Exec: Exec{
			DurationNS: 12_345_678,
			Phases: []Phase{
				{Name: "join", DurationNS: 12_100_000},
			},
			Bounds: []BoundStep{
				{Nanos: 800_000, Old: Unbounded, New: 0.02, Source: "kheap"},
				{Nanos: 2_100_000, Old: 0.02, New: 0.002, Source: "merge"},
			},
			Stats: Stats{
				Accesses: 280, ReadsP: 150, ReadsQ: 130, BufferHits: 900,
				NodePairsProcessed: 104, SubPairsGenerated: 800, SubPairsPruned: 512,
				PointPairsCompared: 812, MaxQueueSize: 37, NodeCacheHits: 10, NodeCacheMisses: 2,
			},
			Results:     8,
			KthDistance: 0.00132,
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

// TestCaptureBounds records a query's bound steps and totals, and checks
// the snapshot: the +Inf start maps to Unbounded, the rest passes
// through, the steps are stamped in order from Begin, and Finish records
// the one join phase as the query's wall time.
func TestCaptureBounds(t *testing.T) {
	var c Capture
	c.Begin(Plan{Label: "HEAP k=2"})
	c.Bound(math.Inf(1), 0.5, "kheap")
	c.Bound(0.5, 0.25, "maxmax")
	c.Finish(Stats{NodePairsProcessed: 3}, 2, 0.5)
	snap := c.Snapshot()
	b := snap.Exec.Bounds
	want := []BoundStep{
		{Nanos: b[0].Nanos, Old: Unbounded, New: 0.5, Source: "kheap"},
		{Nanos: b[1].Nanos, Old: 0.5, New: 0.25, Source: "maxmax"},
	}
	if !slices.Equal(b, want) || b[0].Nanos < 0 || b[1].Nanos < b[0].Nanos {
		t.Fatalf("bounds = %+v, want %+v stamped in order", b, want)
	}
	if p := snap.Exec.Phases; len(p) != 1 || p[0] != (Phase{"join", snap.Exec.DurationNS}) || snap.Exec.DurationNS < b[1].Nanos {
		t.Fatalf("phases %+v, duration %d: want one join phase of the query's wall time", p, snap.Exec.DurationNS)
	}
	if snap.Plan.Label != "HEAP k=2" || snap.Exec.Results != 2 || snap.Exec.Stats.NodePairsProcessed != 3 {
		t.Fatalf("snapshot %+v lost the plan or the totals", snap)
	}
}

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
		c.Begin(Plan{})
		c.Bound(2, 1, "kheap")
		c.Phase("join", 1)
		c.Finish(Stats{}, 1, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil capture allocated %.1f/op, want 0", allocs)
	}
}

// TestRender sanity-checks the text tree against the sample snapshot.
func TestRender(t *testing.T) {
	out := sampleExplain().Render()
	for _, want := range []string{
		"QUERY HEAP k=8 par=4",
		"plan",
		"algorithm: HEAP  k=8  workers=4",
		"execution",
		"phases: join 12.1ms",
		"bound trajectory: 2 tightenings, ∞ → 0.002",
		"stats: 280 accesses",
		"results: 8 pairs",
		"@2.1ms 0.02 → 0.002 (merge)",
		"└─ results: 8 pairs, k-th distance 0.00132",
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
	f.Add([]byte(`{"plan":{"label":"STD k=1","algorithm":"STD","k":1,"workers":1},"exec":{"duration_ns":1,"stats":{"accesses":2,"reads_p":1,"reads_q":1,"buffer_hits":0,"node_pairs":1,"sub_pairs_generated":0,"sub_pairs_pruned":0,"point_pairs":4,"max_queue_size":0,"node_cache_hits":0,"node_cache_misses":0},"results":1,"kth_distance":0.25,"spans":[{"span":1,"label":"STD k=1","duration_ns":1,"events":2,"final_bound":0.0625,"results":1}]}}`))
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
