package cpq

import (
	"math"
	"sort"
	"testing"
)

func TestWithinDistanceFacade(t *testing.T) {
	ps := randomPoints(40, 300, 0)
	qs := randomPoints(41, 300, 0.6)
	p, err := BuildIndex(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qs)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	const eps = 0.05
	var got []float64
	if _, err := WithinDistance(p, q, eps, func(pr Pair) bool {
		got = append(got, pr.Dist)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, a := range ps {
		for _, b := range qs {
			if d := a.Dist(b); d <= eps {
				want = append(want, d)
			}
		}
	}
	sort.Float64s(got)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("pair %d: %g vs %g", i, got[i], want[i])
		}
	}
}
