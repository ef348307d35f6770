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
				{Nanos: 800_000, Old: Unbounded, New: 0.02, Source: "kheap", Span: 17},
				{Nanos: 2_100_000, Old: 0.02, New: 0.002, Source: "merge", Span: 17},
			},
			Events: []KindCount{
				{Kind: "query_start", N: 1},
				{Kind: "query_end", N: 1},
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
				Span: 17, Label: "HEAP k=8 par=4", DurationNS: 12_000_000,
				Events: 108, FinalBound: 0.002, Results: 8,
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

// TestCaptureSpan drives a Capture as a Tracer through one query span and
// checks the captured span and bound trajectory.
func TestCaptureSpan(t *testing.T) {
	c := New(nil)
	s := obs.StartSpan(c, "query")
	s.Emit(obs.Event{Kind: obs.EvBoundTightened, Old: math.Inf(1), New: 0.5, Source: obs.SourceKHeap})
	s.End(0.25, 8, "")

	snap := c.Snapshot()
	if len(snap.Exec.Spans) != 1 {
		t.Fatalf("got %d spans, want 1: %+v", len(snap.Exec.Spans), snap.Exec.Spans)
	}
	q := snap.Exec.Spans[0]
	if q.Label != "query" || q.Events != 3 || q.FinalBound != 0.25 || q.Results != 8 {
		t.Fatalf("span = %+v, want \"query\" with 3 events, final bound 0.25, 8 results", q)
	}
	if len(snap.Exec.Bounds) != 1 || snap.Exec.Bounds[0].Old != Unbounded || snap.Exec.Bounds[0].New != 0.5 {
		t.Fatalf("bounds = %+v, want one step inf→0.5", snap.Exec.Bounds)
	}
	if b := snap.Exec.Bounds[0]; b.Source != "kheap" || b.Span != q.Span {
		t.Fatalf("bound step = %+v, want source kheap on span %d", b, q.Span)
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
		"QUERY HEAP k=8 par=4",
		"plan",
		"algorithm: HEAP  k=8  workers=4",
		"execution",
		"phases: join 12.1ms",
		"bound trajectory: 2 tightenings, ∞ → 0.002",
		"stats: 280 accesses",
		"results: 8 pairs",
		`└─ span 17 "HEAP k=8 par=4" 12ms, 108 events, 8 results, final bound 0.002`,
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
