package core

import (
	"math"
	"sync"
	"testing"

	"repro/internal/obs"
)

// captureTracer records events for assertions; safe for parallel workers.
type captureTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureTracer) Event(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// countTracer only counts, for benchmarks (no retention, no IO).
type countTracer struct{ n int64 }

func (c *countTracer) Event(obs.Event) { c.n++ }

// TestDisabledHooksZeroAlloc pins the acceptance criterion that every
// emission helper is free on the disabled path: with a nil span the whole
// hook set performs zero allocations per call.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	j := &join{kheap: newKHeap(2), bound: math.Inf(1), lastT: math.Inf(1)}
	p := nodePair{la: 2, lb: 1, minminSq: 3.5}
	allocs := testing.AllocsPerRun(1000, func() {
		j.traceNodeExpanded(p)
		j.traceBound(obs.SourceKHeap)
		j.traceHighWater(17)
		j.traceSweepPruned(12)
		j.traceQueryEnd(0, nil)
	})
	if allocs != 0 {
		t.Fatalf("disabled hook path allocates %v per op, want 0", allocs)
	}
}

// TestTraceEventCompleteness is the trace-replay property test: for every
// algorithm, (a) the number of EvNodeExpanded events equals the
// Stats.NodePairsProcessed counter, and (b) replaying the EvBoundTightened
// events yields a monotone non-increasing bound whose final value, decoded
// with the metric, is exactly the reported K-th distance.
func TestTraceEventCompleteness(t *testing.T) {
	ps := uniformPoints(7100, 400, 0)
	qs := uniformPoints(7200, 350, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 10} {
			opts := DefaultOptions(alg)
			tr := &captureTracer{}
			opts.Observe = &Observer{Tracer: tr}
			pairs, stats, err := KClosestPairs(ta, tb, k, opts)
			if err != nil {
				t.Fatalf("%v k=%d: %v", alg, k, err)
			}
			checkTrace(t, alg, k, tr.events, pairs, stats, opts, true)
		}
	}
	// Parallel HEAP: emissions from racing workers are not globally
	// ordered, so only the counting property holds (each worker's CAS
	// tightenings interleave; the bound itself is still monotone, but the
	// event stream's arrival order is not).
	opts := DefaultOptions(Heap)
	opts.Parallelism = 4
	tr := &captureTracer{}
	opts.Observe = &Observer{Tracer: tr}
	pairs, stats, err := KClosestPairs(ta, tb, 10, opts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	checkTrace(t, Heap, 10, tr.events, pairs, stats, opts, false)
}

// checkTrace verifies one query's event stream against its Stats and
// results. ordered selects the sequential-only monotone-replay checks.
func checkTrace(t *testing.T, alg Algorithm, k int, events []obs.Event,
	pairs []Pair, stats Stats, opts Options, ordered bool) {
	t.Helper()
	if len(events) < 2 {
		t.Fatalf("%v k=%d: only %d events", alg, k, len(events))
	}
	if events[0].Kind != obs.EvQueryStart {
		t.Fatalf("%v k=%d: first event is %v", alg, k, events[0].Kind)
	}
	last := events[len(events)-1]
	if last.Kind != obs.EvQueryEnd {
		t.Fatalf("%v k=%d: last event is %v", alg, k, last.Kind)
	}
	if last.N != int64(len(pairs)) {
		t.Errorf("%v k=%d: query_end reports %d results, want %d", alg, k, last.N, len(pairs))
	}

	var expanded int64
	bound := math.Inf(1)
	for _, e := range events {
		if e.Span != events[0].Span {
			t.Fatalf("%v k=%d: event %v from foreign span", alg, k, e.Kind)
		}
		switch e.Kind {
		case obs.EvNodeExpanded:
			expanded++
		case obs.EvBoundTightened:
			if ordered {
				if e.Old != bound {
					t.Fatalf("%v k=%d: bound_tightened old=%v, replayed bound is %v", alg, k, e.Old, bound)
				}
				if !(e.New < e.Old) {
					t.Fatalf("%v k=%d: bound_tightened did not decrease: old=%v new=%v", alg, k, e.Old, e.New)
				}
				bound = e.New
			}
		}
	}
	if expanded != stats.NodePairsProcessed {
		t.Errorf("%v k=%d: %d node_expanded events, Stats.NodePairsProcessed=%d",
			alg, k, expanded, stats.NodePairsProcessed)
	}
	if !ordered || len(pairs) < k {
		return
	}
	// The replayed bound must end at the reported K-th distance: the final
	// effective T is the K-heap threshold (the aux bound never undercuts
	// it), and query_end carries the same value.
	kth := opts.Metric.KeyToDist(bound)
	if kth != pairs[len(pairs)-1].Dist {
		t.Errorf("%v k=%d: replayed final bound %v != reported K-th distance %v",
			alg, k, kth, pairs[len(pairs)-1].Dist)
	}
	if last.New != bound {
		t.Errorf("%v k=%d: query_end bound %v != replayed bound %v", alg, k, last.New, bound)
	}
}

// TestQueryMetricsAndSlowLog checks that a traced-and-metered query lands
// in the registry with counters matching its Stats snapshot.
func TestQueryMetricsAndSlowLog(t *testing.T) {
	ps := uniformPoints(7300, 300, 0)
	qs := uniformPoints(7400, 300, 0.2)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	reg := obs.NewMetrics()
	em := obs.NewEngineMetrics(reg)
	slow := obs.NewSlowQueryLog(0, nil) // threshold 0: every query is slow
	opts := DefaultOptions(Heap)
	opts.Observe = &Observer{Metrics: em, SlowLog: slow}
	pairs, stats, err := KClosestPairs(ta, tb, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	if em.Queries.Value() != 1 {
		t.Fatalf("queries counter = %d, want 1", em.Queries.Value())
	}
	if em.AccessesTotal.Value() != stats.Accesses() {
		t.Errorf("accesses counter = %d, Stats says %d", em.AccessesTotal.Value(), stats.Accesses())
	}
	if em.ResultDistance.Count() != 1 {
		t.Errorf("result distance histogram count = %d, want 1", em.ResultDistance.Count())
	}
	if got := em.ResultDistance.Sum(); got != pairs[len(pairs)-1].Dist {
		t.Errorf("result distance sum = %v, want %v", got, pairs[len(pairs)-1].Dist)
	}
	if s := slow.Summary(); s == "" {
		t.Errorf("slow log summary empty after a recorded query")
	}
	// Parallel run records worker utilization.
	opts.Parallelism = 4
	if _, _, err := KClosestPairs(ta, tb, 5, opts); err != nil {
		t.Fatal(err)
	}
	if em.WorkerUtilization.Count() != 1 {
		t.Errorf("worker utilization count = %d, want 1", em.WorkerUtilization.Count())
	}
}

// benchQuery runs one HEAP query for the tracing-overhead benchmarks.
func benchQuery(b *testing.B, tracer obs.Tracer) {
	ps := uniformPoints(8100, 2000, 0)
	qs := uniformPoints(8200, 2000, 0.5)
	ta := buildTree(b, ps, 1024)
	tb := buildTree(b, qs, 1024)
	opts := DefaultOptions(Heap)
	if tracer != nil {
		opts.Observe = &Observer{Tracer: tracer}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KClosestPairs(ta, tb, 10, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTracingDisabled(b *testing.B) { benchQuery(b, nil) }

func BenchmarkQueryTracingEnabled(b *testing.B) { benchQuery(b, &countTracer{}) }
