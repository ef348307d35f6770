package cpq_test

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// TestEveryEntryPointHonoursEveryHook runs every K-CPQ entry point under
// WithExplain: the snapshot has the plan's label, the result count and a
// bound trajectory. The cells pin the sequential label, so they pass
// WithParallelism(1), which holds whatever the default picks for these
// trees.
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
		t.Run(row.name+"/explain", func(t *testing.T) {
			c := cpq.NewExplainCapture(nil)
			pairs, err := row.run(cpq.WithExplain(c), cpq.WithParallelism(1))
			if err != nil {
				t.Fatal(err)
			}
			snap := c.Snapshot()
			if snap.Plan.Label != row.label || snap.Exec.Results != len(pairs) || len(snap.Exec.Bounds) == 0 {
				t.Fatalf("explain plan %+v with %d results and %d bound steps, want label %q, %d results and a trajectory",
					snap.Plan, snap.Exec.Results, len(snap.Exec.Bounds), row.label, len(pairs))
			}
		})
	}
}
