package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// writePoints saves n uniform points drawn from seed to a CSV file in dir.
func writePoints(t *testing.T, dir string, n int, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("%d.csv", seed))
	if err := dataset.SavePoints(path, dataset.Uniform(seed, n)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRejectsBadFlagValues(t *testing.T) {
	dir := t.TempDir()
	p, q := writePoints(t, dir, 200, 1), writePoints(t, dir, 200, 2)
	for _, tc := range []struct {
		args []string
		want string
	}{
		// -k 0 used to stream all 200 × 200 pairs: WithMaxPairs(0) is
		// unbounded.
		{[]string{"-k", "0", "-incremental", "SML"}, "-k must be at least 1, got 0"},
		{[]string{"-k", "0"}, "-k must be at least 1, got 0"},
		{[]string{"-k", "-3", "-self"}, "-k must be at least 1, got -3"},
		// -buffer -1 used to be taken as 0 (-1/2 == 0), and -buffer -2 to
		// fail naming -1.
		{[]string{"-buffer", "-1"}, "-buffer must be non-negative, got -1"},
		{[]string{"-buffer", "-2"}, "-buffer must be non-negative, got -2"},
		{[]string{"-algorithm", "FAST"}, `unknown -algorithm "FAST"`},
		{[]string{"-incremental", "DFS"}, `unknown -incremental traversal "DFS"`},
		{[]string{"-semi", "-explain"}, "-explain supports only the K-CPQ"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(append([]string{"-p", p, "-q", q}, tc.args...), &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 and %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q", tc.args, stdout.String())
		}
	}
}

// TestWatchIsGone: -watch, the retired live-progress display, is an
// unknown flag; -explain prints the bound trajectory instead.
func TestWatchIsGone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-p", "p.csv", "-self", "-watch"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "flag provided but not defined: -watch") {
		t.Fatalf("-watch: exit %d, stderr %q; want a rejected flag (exit 2)", code, stderr.String())
	}
}

func TestEveryModeRuns(t *testing.T) {
	dir := t.TempDir()
	p, q := writePoints(t, dir, 300, 1), writePoints(t, dir, 300, 2)
	for _, tc := range []struct {
		args []string
		want string // the first line's prefix
		plan bool   // an EXPLAIN tree follows
	}{
		{[]string{"-q", q, "-k", "5"}, "# HEAP: 5 pairs", false},
		{[]string{"-q", q, "-k", "5", "-parallel", "2", "-buffer", "16"}, "# HEAP: 5 pairs", false},
		{[]string{"-q", q, "-k", "5", "-algorithm", "std"}, "# STD: 5 pairs", false},
		{[]string{"-q", q, "-k", "5", "-explain"}, "# HEAP: 5 pairs", true},
		{[]string{"-q", q, "-semi", "-k", "0", "-quiet"}, "# HEAP: 300 pairs", false},
		{[]string{"-q", q, "-k", "5", "-incremental", "SML"}, "# incremental SML: 5 pairs", false},
		{[]string{"-q", q, "-k", "5", "-incremental", "BAS"}, "# incremental BAS: 5 pairs", false},
		{[]string{"-k", "5", "-self", "-algorithm", "STD"}, "# STD: 5 pairs", false},
		{[]string{"-k", "5", "-self", "-explain"}, "# HEAP: 5 pairs", true},
		{[]string{"-k", "5", "-self", "-explain-json", "-quiet"}, "# HEAP: 5 pairs", false},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-p", p}, tc.args...), &stdout, &stderr); code != 0 {
			t.Errorf("%v: exit %d, stderr %q", tc.args, code, stderr.String())
			continue
		}
		out := stdout.String()
		if !strings.HasPrefix(out, tc.want) {
			t.Errorf("%v: output starts %q, want %q", tc.args, firstLine(out), tc.want)
		}
		if tc.plan && !strings.Contains(out, "\nQUERY HEAP ") {
			t.Errorf("%v: no EXPLAIN tree in\n%s", tc.args, out)
		}
	}
}

// TestParallelOneIsSequential: -parallel 1 is the paper's sequential HEAP,
// so the plan label names no workers, although the default would run these
// four-level trees on the task engine wherever GOMAXPROCS > 1.
func TestParallelOneIsSequential(t *testing.T) {
	dir := t.TempDir()
	p, q := writePoints(t, dir, 5000, 3), writePoints(t, dir, 5000, 4)
	var stdout, stderr bytes.Buffer
	args := []string{"-p", p, "-q", q, "-k", "5", "-parallel", "1", "-explain", "-quiet"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	plan := stdout.String()
	if !strings.Contains(plan, "QUERY HEAP k=5") || strings.Contains(plan, "par=") {
		t.Fatalf("-parallel 1 did not run sequentially:\n%s", plan)
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}
