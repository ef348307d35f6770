package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	cpq "repro"
)

// buildIndex writes a 1000-point index to a file in a fresh directory.
func buildIndex(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	pts := make([]cpq.Point, 1000)
	for i := range pts {
		pts[i] = cpq.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	path := filepath.Join(t.TempDir(), "p.idx")
	idx, err := cpq.BuildIndex(pts, cpq.WithPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInspectsIndex(t *testing.T) {
	path := buildIndex(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-index", path, "-dump"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "points:       1000\n") || !strings.Contains(out, "invariants:   ok\n") {
		t.Fatalf("summary lacks the point count or the invariant check:\n%s", out)
	}
	var leaves int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "level 0:") {
			fmt.Sscanf(line, "level 0: %d", &leaves)
		}
	}
	if want := fmt.Sprintf("leaves x-ordered: %d/%d\n", leaves, leaves); leaves == 0 || !strings.Contains(out, want) {
		t.Fatalf("want %q in:\n%s", want, out)
	}
}

func TestRejectsWrongPageSize(t *testing.T) {
	path := buildIndex(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-index", path, "-page-size", "512"}, &stdout, &stderr)
	if want := "stored page size 1024 != pool page size 512"; code != 1 || !strings.Contains(stderr.String(), want) {
		t.Fatalf("exit %d, stderr %q; want exit 1 and %q", code, stderr.String(), want)
	}
}

func TestRequiresIndex(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "-index") {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
}
