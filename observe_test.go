package cpq_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestMetricsEndpointMatchesStats is the acceptance check for the metrics
// exposition path: after one metered query, the /metrics endpoint of
// ObservabilityMux must report live counters equal to the query's final
// Stats snapshot.
func TestMetricsEndpointMatchesStats(t *testing.T) {
	p, q := buildPair(t, cpq.WithNodeCache(256))
	reg := cpq.NewMetrics()
	em := cpq.NewEngineMetrics(reg)
	srv := httptest.NewServer(cpq.ObservabilityMux(reg, false))
	defer srv.Close()

	pairs, stats, err := cpq.KClosestPairs(p, q, 10, cpq.WithMetrics(em))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 10 {
		t.Fatalf("got %d pairs", len(pairs))
	}

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	got := parseSamples(t, string(body))
	want := map[string]float64{
		"cpq_queries_total":           1,
		"cpq_accesses_total":          float64(stats.Accesses()),
		"cpq_node_cache_hits_total":   float64(stats.NodeCacheHits),
		"cpq_node_cache_misses_total": float64(stats.NodeCacheMisses),
		"cpq_node_cache_hit_ratio":    stats.NodeCacheHitRatio(),
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("endpoint is missing %s", name)
			continue
		}
		if g != w {
			t.Errorf("%s = %v on the endpoint, Stats says %v", name, g, w)
		}
	}
	if stats.NodeCacheHits == 0 {
		t.Error("query used no node cache; the cache counters checked nothing")
	}
}

// parseSamples extracts un-labelled samples from a Prometheus text page.
func parseSamples(t *testing.T, page string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[name] = v
	}
	return out
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

// TestSlowQueryLogOption checks the WithSlowQueryLog plumbing: with a zero
// threshold every query is written as a JSON line and aggregated.
func TestSlowQueryLogOption(t *testing.T) {
	p, q := buildPair(t)
	var buf bytes.Buffer
	slow := cpq.NewSlowQueryLog(0, &buf)
	for i := 0; i < 3; i++ {
		if _, _, err := cpq.KClosestPairs(p, q, 4, cpq.WithSlowQueryLog(slow)); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Count(strings.TrimSpace(buf.String()), "\n") + 1
	if lines != 3 {
		t.Fatalf("slow log wrote %d lines, want 3", lines)
	}
	var rep cpq.QueryReport
	first, _, _ := strings.Cut(buf.String(), "\n")
	if err := json.Unmarshal([]byte(first), &rep); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if rep.Results != 4 {
		t.Errorf("report has %d results, want 4", rep.Results)
	}
	if !strings.Contains(slow.Summary(), "3/3") {
		t.Errorf("summary %q does not count 3/3 queries", slow.Summary())
	}
}

// TestSlowQueryLogThreshold checks that a high threshold suppresses the
// JSON lines but keeps aggregating.
func TestSlowQueryLogThreshold(t *testing.T) {
	p, q := buildPair(t)
	var buf bytes.Buffer
	slow := cpq.NewSlowQueryLog(time.Hour, &buf)
	if _, _, err := cpq.ClosestPair(p, q, cpq.WithSlowQueryLog(slow)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("hour-threshold log wrote %q", buf.String())
	}
	if s := slow.Summary(); !strings.Contains(s, "0/1") {
		t.Errorf("summary %q does not show 0/1", s)
	}
}

// Example_observability is the README's curl-able setup in miniature.
func Example_observability() {
	reg := cpq.NewMetrics()
	_ = cpq.NewEngineMetrics(reg)
	srv := httptest.NewServer(cpq.ObservabilityMux(reg, false))
	defer srv.Close()
	resp, _ := srv.Client().Get(srv.URL + "/metrics")
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	fmt.Println(strings.Contains(string(page), "# TYPE cpq_queries_total counter"))
	// Output: true
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
// each observer option alone: the tracer sees one span, the metrics count
// one query, the slow-query log writes one line with the query's label
// and the explain snapshot has the plan's label and the result count.
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
		t.Run(row.name+"/metrics", func(t *testing.T) {
			em := cpq.NewEngineMetrics(cpq.NewMetrics())
			if _, err := row.run(cpq.WithMetrics(em)); err != nil {
				t.Fatal(err)
			}
			if n := em.Queries.Value(); n != 1 {
				t.Fatalf("metrics counted %d queries, want 1", n)
			}
		})
		t.Run(row.name+"/slowlog", func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := row.run(cpq.WithSlowQueryLog(cpq.NewSlowQueryLog(0, &buf))); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var rep cpq.QueryReport
			if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &rep) != nil || rep.Label != row.label {
				t.Fatalf("slow log wrote %q, want one line labelled %q", buf.String(), row.label)
			}
		})
		t.Run(row.name+"/explain", func(t *testing.T) {
			c := cpq.NewExplainCapture(nil)
			pairs, err := row.run(cpq.WithExplain(c))
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
