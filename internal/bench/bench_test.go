package bench

import (
	"bytes"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/incremental"
	"repro/internal/obs"
)

// smallLab builds a heavily scaled-down lab for unit tests.
func smallLab() *Lab {
	return NewLab(0.02) // 62,536 -> ~1250 points
}

func TestLabBuildsAndCachesTrees(t *testing.T) {
	l := smallLab()
	spec := uniformSpec(20000, 20000)
	a, err := l.Tree(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Tree(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Tree must cache by spec")
	}
	if a.Len() != int64(l.ScaledN(20000)) {
		t.Fatalf("Len = %d, want %d", a.Len(), l.ScaledN(20000))
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPairPlacesOverlap(t *testing.T) {
	l := smallLab()
	ta, tb, err := l.Pair(uniformSpec(20000, 1), uniformSpec(20000, 2), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := ta.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := tb.Bounds()
	if err != nil {
		t.Fatal(err)
	}
	ov := ba.Intersect(bb)
	if ov.IsEmpty() {
		t.Fatal("50% overlap workspaces must intersect")
	}
	w := ov.Max.X - ov.Min.X
	if w < 0.4 || w > 0.6 {
		t.Errorf("overlap width = %g, want ~0.5", w)
	}
}

func TestRunCoreCountsAccesses(t *testing.T) {
	l := smallLab()
	ta, tb, err := l.Pair(realSpec(), uniformControl(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := l.RunCore(ta, tb, 1, core.DefaultOptions(core.Heap), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Accesses() <= 0 {
		t.Fatal("no accesses at B=0")
	}
	// A very large buffer can only reduce accesses.
	s1, err := l.RunCore(ta, tb, 1, core.DefaultOptions(core.Heap), 100000)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Accesses() > s0.Accesses() {
		t.Errorf("buffered run cost %d > unbuffered %d", s1.Accesses(), s0.Accesses())
	}
	// Runs are repeatable after prepare().
	s2, err := l.RunCore(ta, tb, 1, core.DefaultOptions(core.Heap), 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Accesses() != s0.Accesses() {
		t.Errorf("repeat run cost %d != %d", s2.Accesses(), s0.Accesses())
	}
}

func TestRunIncremental(t *testing.T) {
	l := smallLab()
	ta, tb, err := l.Pair(realSpec(), uniformControl(), 0)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := l.RunIncremental(ta, tb, 10, incremental.Options{Traversal: incremental.Simultaneous}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Accesses() <= 0 || stats.Reported != 10 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestExperimentRegistry pins the registry, in order, to the sections of
// the committed full-scale report: every experiment regenerates one
// "=== name: title ===" block of results_full.txt and nothing else is
// registered.
func TestExperimentRegistry(t *testing.T) {
	report, err := os.ReadFile("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "=== ") {
			want = append(want, line)
		}
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("%d experiments registered, results_full.txt has %d sections", len(exps), len(want))
	}
	for i, e := range exps {
		if e.Run == nil {
			t.Fatalf("%s has no runner", e.Name)
		}
		if got := "=== " + e.Name + ": " + e.Title + " ==="; got != want[i] {
			t.Fatalf("experiment %d is %q, results_full.txt section %d is %q", i, got, i, want[i])
		}
		if byName, ok := ByName(e.Name); !ok || byName.Title != e.Title {
			t.Fatalf("ByName(%q) does not find the registered experiment", e.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName must reject unknown names")
	}
	if len(Names()) != len(exps) {
		t.Fatal("Names/Experiments mismatch")
	}
}

// countingTracer counts the events it receives (parallel workers emit
// concurrently).
type countingTracer struct{ n atomic.Int64 }

func (c *countingTracer) Event(obs.Event) { c.n.Add(1) }

// TestLabConfigIsPerLab runs the same workload through two Labs in one
// process, one parallel and traced, one zero-valued: the second must see
// none of the first's wiring — no events, the sequential algorithm's exact
// counters, totals of its own.
func TestLabConfigIsPerLab(t *testing.T) {
	tr := &countingTracer{}
	wired := &Lab{Scale: 0.02, Parallelism: 2, Tracer: tr, Explain: true}
	plain := &Lab{Scale: 0.02}
	opts := core.DefaultOptions(core.Heap)
	run := func(l *Lab) core.Stats {
		t.Helper()
		ta, tb, err := l.Pair(realSpec(), uniformControl(), 1.0)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := l.RunCore(ta, tb, 10, opts, 0)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	run(wired)
	seen := tr.n.Load()
	if seen == 0 || wired.LastExplain() == nil {
		t.Fatalf("wired lab: %d events, explain %v", seen, wired.LastExplain())
	}
	if spans := wired.LastExplain().Exec.Spans; len(spans) != 1 || !strings.HasSuffix(spans[0].Label, "par=2") {
		t.Fatalf("wired lab did not run the 2-worker engine: spans %+v", spans)
	}

	got := run(plain)
	if n := tr.n.Load(); n != seen {
		t.Fatalf("zero-valued lab emitted %d events into the other lab's tracer", n-seen)
	}
	if plain.LastExplain() != nil {
		t.Fatal("zero-valued lab captured an explain snapshot")
	}
	ta, tb, err := plain.Pair(realSpec(), uniformControl(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	prepare(ta, tb, 0)
	_, want, err := core.KClosestPairs(ta, tb, 10, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("zero-valued lab stats %+v, sequential engine %+v", got, want)
	}
	pt := plain.Totals()
	if pt.Queries != 1 || pt.Accesses != want.Accesses() || pt.NodePairs != want.NodePairsProcessed {
		t.Fatalf("zero-valued lab totals %+v, want the one sequential query (%d accesses, %d node pairs)",
			pt, want.Accesses(), want.NodePairsProcessed)
	}
	if wt := wired.Totals(); wt.Queries != 1 {
		t.Fatalf("wired lab totals %+v, want 1 query", wt)
	}
	plain.ResetTotals()
	if wired.Totals().Queries != 1 || plain.Totals().Queries != 0 {
		t.Fatal("ResetTotals on one lab reached the other")
	}
}

// TestEveryExperimentRunsAtTinyScale smoke-tests each figure end to end.
func TestEveryExperimentRunsAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	l := NewLab(0.01)
	for _, e := range Experiments() {
		var buf bytes.Buffer
		if err := e.Run(l, &buf); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		out := buf.String()
		if !strings.Contains(out, "Figure") && !strings.Contains(out, "Ablation") &&
			!strings.Contains(out, "Footnote") && !strings.Contains(out, "Tree shapes") &&
			!strings.Contains(out, "Cost model") && !strings.Contains(out, "Semi-CPQ") {
			t.Fatalf("%s produced unexpected output:\n%s", e.Name, out)
		}
		if strings.Count(out, "\n") < 4 {
			t.Fatalf("%s produced too little output:\n%s", e.Name, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := newTable("Demo", "a", "b")
	tb.addRow("x", "1")
	tb.addf("y", "%d", 2)
	var buf bytes.Buffer
	if err := tb.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "a", "b", "x", "1", "y", "2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPct(t *testing.T) {
	if got := pct(50, 100); got != "50.0%" {
		t.Errorf("pct = %q", got)
	}
	if got := pct(5, 0); got != "n/a" {
		t.Errorf("pct with zero baseline = %q", got)
	}
}
