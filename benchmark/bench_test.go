package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	cpq "repro"
	"repro/internal/core"
	"repro/internal/geom"
)

const testPoints = 2000

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// Every workload runs end to end at N = 2000 — set-up, oracle, measure
// phase, traced pass, layer probes — with no failed op, and emits exactly
// the metrics the tables declare, the end-to-end ones never 0.
func TestWorkloadsEndToEnd(t *testing.T) {
	known := map[string]bool{}
	for _, m := range append(declared(false), declared(true)...) {
		known[m.Name] = true
	}
	for _, w := range workloads {
		cfg := config{w: w, seed: 1, seconds: 0.05, trace: true, n: testPoints,
			workers: workerCount(), dir: filepath.Join(t.TempDir(), "idx")}
		out, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", w.name, out.failed, out.attempted, out.notes)
		}
		if _, err := out.report(); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name := range out.values {
			if !known[name] {
				t.Errorf("%s: emits undeclared metric %q", w.name, name)
			}
		}
		for _, m := range endToEnd {
			if v, ok := out.values[m.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %g (measured: %v), must never be 0", w.name, m.Name, v, ok)
			}
		}
		if len(out.tracer.spans) == 0 {
			t.Errorf("%s: traced pass recorded no spans", w.name)
		}
	}
}

// The grid oracle accepts the brute-force answer on every workload's
// inputs and rejects the ways a wrong answer can look.
func TestOracleAgainstBruteForce(t *testing.T) {
	for _, w := range workloads {
		in := makeInputs(w, 3, 0, testPoints)
		want := core.BruteForceKCP(in.p, in.q, w.k)
		if err := checkKCP(in.p, nil, in.q, nil, want, w.k); err != nil {
			t.Fatalf("%s: oracle rejects the brute-force result: %v", w.name, err)
		}
		mutations := map[string]func([]cpq.Pair) []cpq.Pair{
			"misses the closest pair": func(p []cpq.Pair) []cpq.Pair {
				more := core.BruteForceKCP(in.p, in.q, w.k+1)
				return more[1:]
			},
			"swaps two pairs": func(p []cpq.Pair) []cpq.Pair { p[0], p[1] = p[1], p[0]; return p },
			"is one short":    func(p []cpq.Pair) []cpq.Pair { return p[:len(p)-1] },
			"names a phantom": func(p []cpq.Pair) []cpq.Pair { p[len(p)/2].RefQ++; return p },
			"shrinks a distance": func(p []cpq.Pair) []cpq.Pair {
				p[len(p)-1].Dist *= 0.999
				return p
			},
		}
		for what, mutate := range mutations {
			bad := mutate(append([]cpq.Pair(nil), want...))
			if err := checkKCP(in.p, nil, in.q, nil, bad, w.k); err == nil {
				t.Errorf("%s: oracle accepts a result that %s", w.name, what)
			}
		}
	}

	pts := uniform(5, testPoints)
	self := core.BruteForceSelfKCP(pts, 2)
	if err := checkSelfCP(pts, nil, self[0]); err != nil {
		t.Fatalf("self oracle rejects the brute-force pair: %v", err)
	}
	if err := checkSelfCP(pts, nil, self[1]); err == nil {
		t.Error("self oracle accepts the second closest pair")
	}
	if got := dcSelfCP(pts); got != self[0].Dist {
		t.Errorf("dcSelfCP = %g, brute force %g", got, self[0].Dist)
	}
	// Duplicates: distance 0 must not break the grid.
	dup := append(append([]geom.Point(nil), pts[:100]...), pts[7])
	if err := checkSelfCP(dup, nil, cpq.Pair{P: pts[7], Q: pts[7], RefP: 7, RefQ: 100}); err != nil {
		t.Errorf("self oracle on duplicates: %v", err)
	}
	if got := dcSelfCP(dup); got != 0 {
		t.Errorf("dcSelfCP on duplicates = %g", got)
	}
}

func TestPercentileAndSpread(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.5: 2.5, 0.9: 3.7, 1: 4} {
		if got := percentile(xs, q); !near(got, want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 || median([]float64{7}) != 7 {
		t.Error("percentile of an empty or single sample")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("quartileSpread(1..10) = %g", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if got := quartileSpread([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("quartileSpread(1..5) = %g", got)
	}
	if quartileSpread([]float64{3}) != 0 || quartileSpread(nil) != 0 {
		t.Error("a single value has no spread")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, StartNS: 20, EndNS: 50},  // overlaps 2: counts 30..50
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 120}, // clipped at the parent's end
		{ID: 5, Parent: 3, StartNS: 25, EndNS: 35},
	}
	want := map[int]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var off *tracer
	off.end(off.begin("x", 0, 0)) // tracing off records nothing and does not panic
	off.add("x", 0, 0, 0, 1)
}

// BENCHMARK.json is generated from this package's tables; the committed
// file must be what the binary declares, within the contract's limits.
func TestSpecMatchesBinary(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var committed specFile
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	if want := buildSpec(); !reflect.DeepEqual(committed, want) {
		t.Error("BENCHMARK.json differs from what -print-spec prints; regenerate it")
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || len(w.why) == 0 {
			t.Errorf("workload %s: why has %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range append(declared(false), declared(true)...) {
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
	}
}

func TestPBBSRoundTrip(t *testing.T) {
	pts := clustered(9, 500)
	var buf bytes.Buffer
	if err := writePBBS(&buf, pts); err != nil {
		t.Fatal(err)
	}
	got, err := readPBBS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, pts) {
		t.Error("points changed in a pbbs round trip")
	}
	if _, err := readPBBS(bytes.NewBufferString("pbbs_sequencePoint3d\n1 2 3\n")); err == nil {
		t.Error("readPBBS accepts a 3-d header")
	}
}

func TestJudge(t *testing.T) {
	lower := specE2E{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := specE2E{Name: "queries_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	noisy := []float64{80, 100, 125, 90, 130}
	cases := []struct {
		m       specE2E
		a, b    reportMetric
		verdict string
	}{
		{lower, reportMetric{Value: 100, Rounds: steady}, reportMetric{Value: 109, Rounds: steady}, verdictOK},
		{lower, reportMetric{Value: 100, Rounds: steady}, reportMetric{Value: 111, Rounds: steady}, verdictBreach},
		{lower, reportMetric{Value: 100, Rounds: steady}, reportMetric{Value: 50, Rounds: steady}, verdictOK},
		{higher, reportMetric{Value: 100, Rounds: steady}, reportMetric{Value: 89, Rounds: steady}, verdictBreach},
		{higher, reportMetric{Value: 100, Rounds: steady}, reportMetric{Value: 120, Rounds: steady}, verdictOK},
		{lower, reportMetric{Value: 100, Rounds: noisy}, reportMetric{Value: 111, Rounds: steady}, verdictUnresolved},
		{lower, reportMetric{Value: 100}, reportMetric{Value: 100.4}, verdictOK}, // no rounds: index_mb, peak_rss_mb
	}
	for i, c := range cases {
		if _, got := judge(c.m, c.a, c.b); got != c.verdict {
			t.Errorf("case %d: verdict %s, want %s", i, got, c.verdict)
		}
	}
}

// The all-workloads command fails on a run that failed and on node pairs
// that differ between mem-smallk and disk-cold, and on nothing else: what
// one workload must hold (accesses 0 or far above the pool) is asserted by
// that workload's own run.
func TestCrossInvariants(t *testing.T) {
	report := func(nodePairs map[string]float64) combinedReport {
		c := combinedReport{Workloads: map[string]workloadRun{}}
		for _, w := range workloads {
			ok := runReport{Workload: w.name, Correct: true, Attempted: 10, Metrics: map[string]reportMetric{
				"core.node_pairs_per_query": {Value: nodePairs[w.name]},
				"facade.accesses_per_query": {Value: 29830.5}, // seed 2's disk-cold reading
			}}
			c.Workloads[w.name] = workloadRun{EndToEnd: ok, PerLayer: ok}
		}
		return c
	}
	same := map[string]float64{"mem-smallk": 23003, "disk-cold": 23003, "mem-bigk": 26285}
	if bad := crossInvariants(report(same)); len(bad) != 0 {
		t.Errorf("clean report: %v", bad)
	}
	if bad := crossInvariants(report(map[string]float64{"mem-smallk": 23003, "disk-cold": 23004})); len(bad) != 1 {
		t.Errorf("node pairs differ: got %v, want one failure", bad)
	}
	failed := report(same)
	run := failed.Workloads["mem-par"]
	run.PerLayer.Correct, run.PerLayer.Failed, run.PerLayer.Notes = false, 1, []string{"invariant: x"}
	failed.Workloads["mem-par"] = run
	if bad := crossInvariants(failed); len(bad) != 1 {
		t.Errorf("a failed run: got %v, want one failure", bad)
	}
	delete(failed.Workloads, "mutate-query")
	if bad := crossInvariants(failed); len(bad) != 3 {
		t.Errorf("a missing workload: got %v, want its two passes reported beside the failed run", bad)
	}
}
