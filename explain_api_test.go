package cpq

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

// startLabels records the label of every query_start event it sees.
type startLabels struct {
	mu     sync.Mutex
	labels []string
}

func (c *startLabels) Event(e TraceEvent) {
	if e.Kind == EvQueryStart {
		c.mu.Lock()
		c.labels = append(c.labels, e.Label)
		c.mu.Unlock()
	}
}

// TestWorkersOnlyForParallelHeap pins where a query may claim workers: the
// span label, the explain plan and the query_start event say "par" and a
// worker count above one only for the HEAP algorithm at Parallelism N > 1.
// The recursive algorithms run on one goroutine whatever the knob says.
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
		// The engine labels the span, with explain on and off alike.
		for _, explained := range []bool{true, false} {
			tr := &startLabels{}
			opts := append([]QueryOption{WithTracer(tr)}, c.opts...)
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
			if len(tr.labels) != 1 {
				t.Fatalf("%s: %d query_start events, want 1", c.label, len(tr.labels))
			}
			label, workers := tr.labels[0], 1
			if _, n, ok := strings.Cut(label, " par="); ok {
				workers, _ = strconv.Atoi(n)
			}
			if label != c.label || workers != c.workers {
				t.Errorf("query_start (explain=%v) says %q with %d workers, want %q with %d",
					explained, label, workers, c.label, c.workers)
			}
		}
	}
}
