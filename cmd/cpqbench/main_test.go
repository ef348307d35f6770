package main

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// drive runs the CLI in-process and returns its exit code and streams.
func drive(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRetiredKnobsAreGone pins the command line after the per-PR harness
// was removed: the flags that drove it are rejected, and the environment
// variables that used to reroute every query change nothing.
func TestRetiredKnobsAreGone(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "4"}, {"-shard-transport", "inproc"}, {"-leafscan", "brute"},
		{"-batch-expand"}, {"-nodecache", "64"}, {"-metrics-addr", ":0"}, {"-pprof"},
		{"-pr4", "x.json"}, {"-pr6", "x.json"}, {"-pr9", "x.json"}, {"-pr10", "x.json"},
		{"-trace", "t.jsonl"},
	} {
		if code, _, stderr := drive(t, append(args, "-list")...); code != 2 ||
			!strings.Contains(stderr, "flag provided but not defined") {
			t.Errorf("cpqbench %v: exit %d, stderr %q; want a rejected flag (exit 2)", args, code, stderr)
		}
	}

	wall := regexp.MustCompile(`(?m)^total wall time: .*$`)
	tables := func() string {
		code, stdout, stderr := drive(t, "-scale", "0.01", "-experiment", "fig4,fig7")
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		return wall.ReplaceAllString(stdout, "")
	}
	want := tables()
	t.Setenv("CPQ_SHARDS", "4")
	t.Setenv("CPQ_LEAFSCAN", "brute")
	t.Setenv("CPQ_NODECACHE", "64")
	t.Setenv("CPQ_TIMEOUT", "1ns")
	if got := tables(); got != want {
		t.Fatalf("CPQ_* environment variables changed the report:\n%s\nwant:\n%s", got, want)
	}
}

// TestRejectsBadScale: a -scale that is not a finite positive number
// exits 1 naming the flag, before any experiment runs. The Lab would
// otherwise run -scale -1 at full size and -scale NaN at the 200-point
// floor under a header that prints the flag's value.
func TestRejectsBadScale(t *testing.T) {
	for _, v := range []string{"0", "-1", "NaN", "+Inf"} {
		code, stdout, stderr := drive(t, "-scale", v, "-experiment", "fig4")
		if code != 1 || !strings.Contains(stderr, "-scale") || stdout != "" {
			t.Errorf("-scale %s: exit %d, stdout %q, stderr %q; want exit 1 naming -scale", v, code, stdout, stderr)
		}
	}
}

// TestTimeoutPrintsPartialTotals drives the exit-3 path: an exhausted
// -timeout budget reports the totals of the queries that did finish.
func TestTimeoutPrintsPartialTotals(t *testing.T) {
	code, _, stderr := drive(t, "-scale", "0.01", "-experiment", "fig4", "-timeout", "1ns")
	if code != 3 {
		t.Fatalf("exit %d, want 3; stderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "fig4: wall-clock budget of 1ns exhausted") ||
		!strings.Contains(stderr, "partial totals: 0 queries, 0 disk accesses, 0 node pairs") {
		t.Fatalf("stderr %q lacks the partial totals line", stderr)
	}
}

// TestParallelZeroMeansGOMAXPROCS checks -parallel 0 still resolves to the
// machine's worker count in the -json summaries.
func TestParallelZeroMeansGOMAXPROCS(t *testing.T) {
	code, stdout, stderr := drive(t, "-scale", "0.01", "-experiment", "fig4", "-parallel", "0", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	want := fmt.Sprintf(`"parallel":%d,`, runtime.GOMAXPROCS(0))
	if !strings.Contains(stdout, want) || !strings.Contains(stdout, `"queries":32`) {
		t.Fatalf("summary %q: want %s and fig4's 32 queries", stdout, want)
	}
}
