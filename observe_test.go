package cpq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	cpq "repro"
)

func buildPair(t *testing.T, opts ...cpq.IndexOption) (*cpq.Index, *cpq.Index) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mk := func(shift float64) *cpq.Index {
		pts := make([]cpq.Point, 500)
		for i := range pts {
			pts[i] = cpq.Point{X: rng.Float64() + shift, Y: rng.Float64()}
		}
		idx, err := cpq.BuildIndex(pts, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	p, q := mk(0), mk(0.4)
	t.Cleanup(func() { p.Close(); q.Close() })
	return p, q
}

// TestIndexSetTracerAndJSONL checks the public wiring end to end: a JSONL
// tracer attached through WithTracer and Index.SetTracer sees both the
// query span and the index's cache events, every line valid JSON.
func TestIndexSetTracerAndJSONL(t *testing.T) {
	p, q := buildPair(t, cpq.WithNodeCache(256))
	var buf bytes.Buffer
	tr := cpq.NewJSONLTracer(&buf)
	p.SetTracer(tr)
	q.SetTracer(tr)
	if _, _, err := cpq.KClosestPairs(p, q, 5, cpq.WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]int)
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		kinds[e.Kind]++
	}
	for _, want := range []string{"query_start", "query_end", "node_expanded", "cache_miss", "cache_hit"} {
		if kinds[want] == 0 {
			t.Errorf("no %s events in the JSONL stream (kinds: %v)", want, kinds)
		}
	}
}

// TestLibraryRegistersNoHTTPHandlers guards against an import side
// effect: no package the library links in may mount handlers on
// http.DefaultServeMux (as net/http/pprof and expvar do in their init), so
// a program serving ListenAndServe(addr, nil) exposes only what it
// registered itself.
func TestLibraryRegistersNoHTTPHandlers(t *testing.T) {
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		if _, pattern := http.DefaultServeMux.Handler(req); pattern != "" {
			t.Errorf("GET %s is served by the default mux under pattern %q", path, pattern)
		}
	}
}

// startEndTracer counts the query_start and query_end events it sees.
type startEndTracer struct{ starts, ends atomic.Int64 }

func (c *startEndTracer) Event(e cpq.TraceEvent) {
	switch e.Kind {
	case cpq.EvQueryStart:
		c.starts.Add(1)
	case cpq.EvQueryEnd:
		c.ends.Add(1)
	}
}

// TestEveryEntryPointHonoursEveryHook runs every K-CPQ entry point under
// each observer option alone: the tracer sees one span, and the explain
// snapshot has the plan's label and the result count. The explain cells
// pin the sequential label, so they pass WithParallelism(1), which holds
// whatever the default picks for these trees.
func TestEveryEntryPointHonoursEveryHook(t *testing.T) {
	p, q := buildPair(t)
	ctx := context.Background()
	one := func(pair cpq.Pair, stats cpq.Stats, err error) ([]cpq.Pair, error) {
		return []cpq.Pair{pair}, err
	}
	many := func(pairs []cpq.Pair, stats cpq.Stats, err error) ([]cpq.Pair, error) { return pairs, err }
	for _, row := range []struct {
		name, label string
		run         func(opts ...cpq.QueryOption) ([]cpq.Pair, error)
	}{
		{"ClosestPair", "HEAP k=1", func(o ...cpq.QueryOption) ([]cpq.Pair, error) { return one(cpq.ClosestPair(p, q, o...)) }},
		{"ClosestPairContext", "HEAP k=1", func(o ...cpq.QueryOption) ([]cpq.Pair, error) {
			return one(cpq.ClosestPairContext(ctx, p, q, o...))
		}},
		{"KClosestPairs", "HEAP k=3", func(o ...cpq.QueryOption) ([]cpq.Pair, error) { return many(cpq.KClosestPairs(p, q, 3, o...)) }},
		{"KClosestPairsContext", "HEAP k=3", func(o ...cpq.QueryOption) ([]cpq.Pair, error) {
			return many(cpq.KClosestPairsContext(ctx, p, q, 3, o...))
		}},
		{"SelfClosestPair", "HEAP self k=1", func(o ...cpq.QueryOption) ([]cpq.Pair, error) { return one(cpq.SelfClosestPair(p, o...)) }},
		{"SelfClosestPairContext", "HEAP self k=1", func(o ...cpq.QueryOption) ([]cpq.Pair, error) {
			return one(cpq.SelfClosestPairContext(ctx, p, o...))
		}},
		{"SelfKClosestPairs", "HEAP self k=3", func(o ...cpq.QueryOption) ([]cpq.Pair, error) { return many(cpq.SelfKClosestPairs(p, 3, o...)) }},
		{"SelfKClosestPairsContext", "HEAP self k=3", func(o ...cpq.QueryOption) ([]cpq.Pair, error) {
			return many(cpq.SelfKClosestPairsContext(ctx, p, 3, o...))
		}},
	} {
		t.Run(row.name+"/tracer", func(t *testing.T) {
			tr := &startEndTracer{}
			if _, err := row.run(cpq.WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			if s, e := tr.starts.Load(), tr.ends.Load(); s != 1 || e != 1 {
				t.Fatalf("tracer saw %d query_start and %d query_end events, want 1 and 1", s, e)
			}
		})
		t.Run(row.name+"/explain", func(t *testing.T) {
			c := cpq.NewExplainCapture(nil)
			pairs, err := row.run(cpq.WithExplain(c), cpq.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			snap := c.Snapshot()
			if snap.Plan.Label != row.label || snap.Exec.Results != len(pairs) {
				t.Fatalf("explain plan %+v with %d results, want label %q and %d results",
					snap.Plan, snap.Exec.Results, row.label, len(pairs))
			}
		})
	}
}
