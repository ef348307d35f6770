package cpq

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// TestExplainUnsharded checks the monolithic EXPLAIN path: results are
// bit-identical to the plain query, the plan carries the resolved knobs,
// and the execution totals mirror the stats.
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

	want, wantStats, err := KClosestPairs(p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, rep, err := Explain(p, q, 10)
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
	if len(rep.Exec.Spans) != 1 {
		t.Fatalf("got %d root spans, want 1 (the query span)", len(rep.Exec.Spans))
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

// TestExplainSharded checks EXPLAIN under the deprecated WithShards: the
// query runs on the parallel engine with GOMAXPROCS workers as one "join"
// phase, with no tile plan, and returns the WithParallelism(0) query's
// pairs.
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

	want, _, err := KClosestPairs(p, q, 10, WithParallelism(0))
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
	if w := runtime.GOMAXPROCS(0); rep.Plan.Workers != w {
		t.Fatalf("plan has %d workers, want GOMAXPROCS = %d", rep.Plan.Workers, w)
	}
	if len(rep.Exec.Phases) != 1 || rep.Exec.Phases[0].Name != "join" {
		t.Fatalf("phases = %+v, want one join phase", rep.Exec.Phases)
	}
}

// TestExplainTeesTracer checks that WithTracer keeps working under
// explain: the user's tracer still sees the full event stream.
func TestExplainTeesTracer(t *testing.T) {
	p, err := BuildIndex(randomPoints(65, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(66, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var buf bytes.Buffer
	jt := NewJSONLTracer(&buf)
	if _, _, _, err := Explain(p, q, 5, WithTracer(jt)); err != nil {
		t.Fatal(err)
	}
	if err := jt.Err(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"query_start"`) {
		t.Fatal("teed tracer saw no events")
	}
}

// countingTracer counts the query_start and query_end events it sees.
type countingTracer struct{ starts, ends atomic.Int64 }

func (c *countingTracer) Event(e TraceEvent) {
	switch e.Kind {
	case EvQueryStart:
		c.starts.Add(1)
	case EvQueryEnd:
		c.ends.Add(1)
	}
}

// TestExplainCaptureKeepsItsTee checks that the tee given to
// NewExplainCapture survives WithExplain on a query without WithTracer:
// it sees the query's start and end events.
func TestExplainCaptureKeepsItsTee(t *testing.T) {
	p, err := BuildIndex(randomPoints(69, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(70, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	tee := &countingTracer{}
	if _, _, err := KClosestPairs(p, q, 5, WithExplain(NewExplainCapture(tee))); err != nil {
		t.Fatal(err)
	}
	if s, e := tee.starts.Load(), tee.ends.Load(); s != 1 || e != 1 {
		t.Fatalf("tee saw %d query_start and %d query_end events, want 1 and 1", s, e)
	}
}

// TestExplainSlowLogEmbedsSnapshot checks that a slow-query log attached
// to an explained query embeds the explain snapshot in its JSON line.
func TestExplainSlowLogEmbedsSnapshot(t *testing.T) {
	p, err := BuildIndex(randomPoints(67, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(68, 300, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	var buf bytes.Buffer
	slow := NewSlowQueryLog(0, &buf) // threshold 0: every query logs
	if _, _, _, err := Explain(p, q, 5, WithSlowQueryLog(slow)); err != nil {
		t.Fatal(err)
	}
	var entry struct {
		Explain json.RawMessage `json:"explain"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("slow log line: %v\n%s", err, buf.String())
	}
	if len(entry.Explain) == 0 {
		t.Fatalf("slow log line has no embedded explain: %s", buf.String())
	}
	var rep ExplainReport
	if err := json.Unmarshal(entry.Explain, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Exec.Results != 5 {
		t.Fatalf("embedded snapshot reports %d results, want 5", rep.Exec.Results)
	}
}

// TestWorkersOnlyForParallelHeap pins where a query may claim workers: the
// span label, the explain plan and the query report say "par" and a worker
// count above one only for the HEAP algorithm at Parallelism N > 1. The
// recursive algorithms run on one goroutine whatever the knob says.
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
		// The engine writes the report, with explain on and off alike.
		for _, explained := range []bool{true, false} {
			var buf bytes.Buffer
			opts := append([]QueryOption{WithSlowQueryLog(NewSlowQueryLog(0, &buf))}, c.opts...)
			if explained {
				_, _, rep, err := Explain(p, q, 2, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Plan.Label != c.label || rep.Plan.Workers != c.workers {
					t.Errorf("plan says %q with %d workers, want %q with %d", rep.Plan.Label, rep.Plan.Workers, c.label, c.workers)
				}
				if len(rep.Exec.Spans) != 1 || rep.Exec.Spans[0].Label != c.label {
					t.Errorf("span labels %+v, want one %q", rep.Exec.Spans, c.label)
				}
			} else if _, _, err := KClosestPairs(p, q, 2, opts...); err != nil {
				t.Fatal(err)
			}
			var report QueryReport
			if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
				t.Fatalf("%s: slow-log line %q: %v", c.label, buf.String(), err)
			}
			if report.Label != c.label || report.Workers != c.workers {
				t.Errorf("report (explain=%v) says %q with %d workers, want %q with %d",
					explained, report.Label, report.Workers, c.label, c.workers)
			}
		}
	}
}
