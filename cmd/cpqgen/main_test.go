package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestOutFileRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.csv")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "50", "-seed", "3", "-out", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	pts, err := dataset.LoadPoints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("read back %d points, want 50", len(pts))
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-n", "-1"}, "-n"},
		{[]string{"-n", "-1", "-kind", "clustered"}, "-n"},
		{[]string{"-kind", "nope"}, "-kind"},
		{[]string{"-overlap", "NaN", "-n", "10"}, "-overlap"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 1 naming %s", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: wrote %d bytes to stdout", tc.args, stdout.Len())
		}
	}
}
