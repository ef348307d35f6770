package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/sortx"
)

// TestRandomizedConfigurationsProperty drives random query configurations
// (data sizes, overlap, algorithm, options, K) against the brute-force
// oracle. It is the broadest correctness net in the package.
func TestRandomizedConfigurationsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3000))
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		np := 2 + rng.Intn(300)
		nq := 2 + rng.Intn(300)
		offset := rng.Float64() * 2
		ps := uniformPoints(rng.Int63(), np, 0)
		qs := uniformPoints(rng.Int63(), nq, offset)
		ta := buildTree(t, ps, 256)
		tb := buildTree(t, qs, 256)

		alg := Algorithms()[rng.Intn(5)]
		opts := Options{
			Algorithm: alg,
			Tie:       TieStrategy(rng.Intn(6)),
			Height:    HeightStrategy(rng.Intn(2)),
			Sort:      sortx.Methods()[rng.Intn(6)],
			KPrune:    KPruning(rng.Intn(2)),
		}
		k := 1 + rng.Intn(np*nq)
		if k > 2000 {
			k = 2000
		}
		got, _, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatalf("trial %d (%v k=%d): %v", trial, opts, k, err)
		}
		want := BruteForceKCP(ps, qs, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d (%v k=%d): got %d pairs, want %d",
				trial, opts, k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("trial %d (%v k=%d) pair %d: dist %.12g, want %.12g",
					trial, opts, k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestKHeapProperty checks the K-heap against a sort-based model using
// testing/quick-generated inputs.
func TestKHeapProperty(t *testing.T) {
	f := func(dists []float64, kRaw uint8) bool {
		k := int(kRaw)%20 + 1
		h := newKHeap(k)
		for i, d := range dists {
			d = math.Abs(d)
			if math.IsInf(d, 0) || math.IsNaN(d) {
				d = float64(i)
			}
			h.offer(kPair{distSq: d, refP: int64(i)})
		}
		th := h.threshold() // before sort: sorting ends the heap order
		out := h.sort()
		// Model: sort all, keep first k.
		want := append([]float64(nil), nil...)
		for i, d := range dists {
			d = math.Abs(d)
			if math.IsInf(d, 0) || math.IsNaN(d) {
				d = float64(i)
			}
			want = append(want, d)
		}
		if len(out) != min(k, len(want)) {
			return false
		}
		sortFloats(want)
		for i := range out {
			if out[i].distSq != want[i] {
				return false
			}
		}
		// Threshold is the k-th smallest once full, +Inf otherwise.
		if len(want) >= k {
			if th != want[k-1] {
				return false
			}
		} else if !math.IsInf(th, 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortFloats(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestTieKeyProperties verifies structural properties of the tie keys.
func TestTieKeyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3100))
	randRect := func() geom.Rect {
		x, y := rng.Float64()*10, rng.Float64()*10
		return geom.Rect{
			Min: geom.Point{X: x, Y: y},
			Max: geom.Point{X: x + rng.Float64()*3, Y: y + rng.Float64()*3},
		}
	}
	for i := 0; i < 500; i++ {
		a, b := randRect(), randRect()
		// T2's key equals MINMAXDIST^2.
		if got, want := tieKeyFor(Tie2, geom.L2(), a, b, 1, 1), geom.MinMaxDistSq(a, b); got != want {
			t.Fatalf("T2 key = %g, want %g", got, want)
		}
		// T3 prefers larger area sums: growing one rect must not increase
		// the key.
		bigger := geom.Rect{Min: a.Min, Max: geom.Point{X: a.Max.X + 1, Y: a.Max.Y + 1}}
		if tieKeyFor(Tie3, geom.L2(), bigger, b, 1, 1) >= tieKeyFor(Tie3, geom.L2(), a, b, 1, 1) {
			t.Fatal("T3 key must decrease for larger areas")
		}
		// T5 prefers larger intersections: disjoint rects have key 0,
		// overlapping ones negative.
		if tieKeyFor(Tie5, geom.L2(), a, a, 1, 1) >= 0 && a.Area() > 0 {
			t.Fatal("T5 self key must be negative for non-degenerate rects")
		}
		// TieNone is always 0.
		if tieKeyFor(TieNone, geom.L2(), a, b, 1, 1) != 0 {
			t.Fatal("TieNone key must be 0")
		}
	}
}

// TestBoundIsAlwaysSound: after any query, the reported K-th distance must
// never exceed the auxiliary bound the traversal ended with (the bound is
// an upper bound on the K-th closest distance).
func TestBoundIsAlwaysSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3200))
	for trial := 0; trial < 20; trial++ {
		ps := uniformPoints(rng.Int63(), 100+rng.Intn(200), 0)
		qs := uniformPoints(rng.Int63(), 100+rng.Intn(200), rng.Float64())
		ta := buildTree(t, ps, 256)
		tb := buildTree(t, qs, 256)
		k := 1 + rng.Intn(50)
		j, err := newJoin(ta, tb, k, DefaultOptions(Heap))
		if err != nil {
			t.Fatal(err)
		}
		root, err := j.rootPair()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.runHeap(context.Background(), root); err != nil {
			t.Fatal(err)
		}
		res := j.kheap.results(j.metric)
		if len(res) == int(k) {
			kth := res[len(res)-1].Dist
			if kth*kth > j.bound+1e-9 {
				t.Fatalf("trial %d: k-th dist^2 %g exceeds bound %g",
					trial, kth*kth, j.bound)
			}
		}
		j.release()
	}
}
