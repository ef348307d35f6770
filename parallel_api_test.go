package cpq

import (
	"runtime"
	"slices"
	"testing"
)

// TestDefaultParallelism pins the facade's default parallelism: the task
// engine with GOMAXPROCS workers where the size rule admits the query, the
// sequential algorithm elsewhere, and in either case the pairs, refs and
// order of WithParallelism(1). Its node- and point-pair counts repeat from
// call to call; at GOMAXPROCS 1 the default is the sequential path
// exactly, counter for counter.
func TestDefaultParallelism(t *testing.T) {
	build := func(seed int64, n int) *Index {
		t.Helper()
		idx, err := BuildIndex(randomPoints(seed, n, 0), WithBulkLoad(0.7), WithBufferPages(4096))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { idx.Close() })
		return idx
	}
	// plan returns the workers the default runs on, for the bichromatic
	// and the self query.
	plan := func(p, q *Index, k int) (bi, self int) {
		t.Helper()
		_, _, rep, err := Explain(p, q, k)
		if err != nil {
			t.Fatal(err)
		}
		c := NewExplainCapture(nil)
		if _, _, err := SelfKClosestPairs(p, k, WithExplain(c)); err != nil {
			t.Fatal(err)
		}
		return rep.Plan.Workers, c.Snapshot().Plan.Workers
	}

	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	w := max(procs, 2)
	runtime.GOMAXPROCS(w)
	for _, n := range []int{10, 100} {
		p, q := build(int64(n), n), build(int64(n+1), n)
		for _, k := range []int{1, n} {
			if bi, self := plan(p, q, k); bi != 1 || self != 1 {
				t.Errorf("%d x %d points, K = %d: the default runs %d and %d (self) workers, want 1", n, n, k, bi, self)
			}
		}
	}

	const n = 20000
	p, q := build(1, n), build(2, n)
	if bi, self := plan(p, q, 100); bi != w || self != w {
		t.Errorf("%d x %d points, K = 100: the default runs %d and %d (self) workers, want GOMAXPROCS = %d", n, n, bi, self, w)
	}
	for _, k := range []int{1, 100, 10000} {
		want, _, err := KClosestPairs(p, q, k, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := KClosestPairs(p, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("K = %d: the default's pairs differ from WithParallelism(1)'s", k)
		}
		if _, again, err := KClosestPairs(p, q, k); err != nil {
			t.Fatal(err)
		} else if again.NodePairsProcessed != st.NodePairsProcessed || again.PointPairsCompared != st.PointPairsCompared {
			t.Errorf("K = %d: two default calls counted %d and %d node pairs, %d and %d point pairs", k,
				st.NodePairsProcessed, again.NodePairsProcessed, st.PointPairsCompared, again.PointPairsCompared)
		}
		want, _, err = SelfKClosestPairs(p, k, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = SelfKClosestPairs(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("self, K = %d: the default's pairs differ from WithParallelism(1)'s", k)
		}
	}

	runtime.GOMAXPROCS(1)
	for _, k := range []int{1, 100, 10000} {
		_, want, err := KClosestPairs(p, q, k, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := KClosestPairs(p, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("GOMAXPROCS 1, K = %d: the default's stats %v, WithParallelism(1)'s %v", k, got, want)
		}
		_, want, err = SelfKClosestPairs(p, k, WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		_, got, err = SelfKClosestPairs(p, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("GOMAXPROCS 1, self, K = %d: the default's stats %v, WithParallelism(1)'s %v", k, got, want)
		}
	}
}
