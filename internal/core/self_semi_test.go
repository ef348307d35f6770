package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
)

func TestSelfKCPMatchesBruteForce(t *testing.T) {
	ps := uniformPoints(2100, 600, 0)
	tr := buildTree(t, ps, 256)
	for _, k := range []int{1, 2, 10, 100} {
		got, stats, err := SelfKClosestPairs(tr, k, DefaultOptions(Heap))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want := BruteForceSelfKCP(ps, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("k=%d pair %d: dist %.12g, want %.12g",
					k, i, got[i].Dist, want[i].Dist)
			}
			if got[i].RefP == got[i].RefQ {
				t.Fatalf("k=%d pair %d: self pair %+v", k, i, got[i])
			}
		}
		if stats.Accesses() <= 0 {
			t.Errorf("k=%d: no accesses recorded", k)
		}
	}
}

// TestParallelSelfJoinMatrix: the self join is the K-CPQ join in self
// mode, so every algorithm, sequential and on the task engine, must
// return the oracle's pairs, refs and order — RefP < RefQ included — for
// every K up to more than the set has pairs. The inputs are where a
// diagonal rule would slip: the duplicate-heavy grids of
// TestParallelMatchesSequential, one x for every point (every sweep gap
// is zero), a tree that is one leaf of two points, and a bulk-loaded
// vertical line whose closest pair straddles two leaves. On the line each
// leaf's MBR has zero width, so a leaf's MINMAXDIST with itself is 0: a
// diagonal that applied Inequality 2 to (c, c) would prune that pair.
// Under -short or -race (ci.sh repeats the test under both) one grid
// runs, K stops at 20000 pairs, and the algorithms that ignore
// Parallelism run once.
func TestParallelSelfJoinMatrix(t *testing.T) {
	quick := testing.Short() || raceEnabled
	type input struct {
		name string
		ps   []geom.Point
		bulk bool
	}
	allX := uniformPoints(5600, 150, 0)
	for i := range allX {
		allX[i].X = 0.5
	}
	// STR packs the y-sorted line into ten 20-point leaves: the only 0.5
	// gap, the closest pair, is between points 19 and 20.
	line := make([]geom.Point, 200)
	for i := range line {
		line[i] = geom.Point{X: 0.5, Y: float64(i)}
		if i >= 20 {
			line[i].Y -= 0.5
		}
	}
	inputs := []input{
		{"uniform", uniformPoints(5500, 400, 0), false},
		{"all-x-equal", allX, false},
		{"two-points", uniformPoints(5700, 2, 0), false},
		{"line", line, true},
	}
	grids := int64(4)
	if quick {
		grids = 1
	}
	for trial := int64(0); trial < grids; trial++ {
		inputs = append(inputs, input{fmt.Sprintf("grid %d", trial), gridPoints(4500+2*trial, 400), false})
	}
	for _, in := range inputs {
		var tr *rtree.Tree
		if in.bulk {
			tr = bulkTree(t, in.ps)
			var root rtree.Node
			if err := tr.ReadNodeInto(tr.RootID(), &root); err != nil {
				t.Fatal(err)
			}
			if root.IsLeaf() || root.Entries[0].Rect.Max.Y != in.ps[19].Y {
				t.Fatalf("%s: the closest pair does not straddle the first two leaves", in.name)
			}
		} else {
			tr = buildTree(t, in.ps, 256)
		}
		n := len(in.ps)
		for _, k := range []int{1, 10, 100, 1000, n*(n-1)/2 + 5} {
			if quick && k > 20000 {
				continue
			}
			want := BruteForceSelfKCP(in.ps, k)
			for _, alg := range Algorithms() {
				for _, workers := range []int{1, 2, 4} {
					if quick && workers > 1 && alg != Heap {
						continue
					}
					opts := DefaultOptions(alg)
					opts.Parallelism = workers
					got, _, err := SelfKClosestPairs(tr, k, opts)
					if err != nil {
						t.Fatal(err)
					}
					samePairs(t, fmt.Sprintf("%s/k=%d/%v/W=%d", in.name, k, alg, workers), got, want)
				}
			}
		}
	}
}

func TestSelfKCPNoDuplicateUnorderedPairs(t *testing.T) {
	ps := uniformPoints(2200, 300, 0)
	tr := buildTree(t, ps, 256)
	got, _, err := SelfKClosestPairs(tr, 80, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int64]bool{}
	for _, p := range got {
		key := [2]int64{p.RefP, p.RefQ}
		if p.RefP > p.RefQ {
			key = [2]int64{p.RefQ, p.RefP}
		}
		if seen[key] {
			t.Fatalf("unordered pair %v reported twice", key)
		}
		seen[key] = true
	}
}

func TestSelfKCPKPruningVariants(t *testing.T) {
	ps := uniformPoints(2250, 500, 0)
	tr := buildTree(t, ps, 256)
	for _, kp := range []KPruning{KPruneMaxMax, KPruneHeapTop} {
		opts := DefaultOptions(Heap)
		opts.KPrune = kp
		got, _, err := SelfKClosestPairs(tr, 40, opts)
		if err != nil {
			t.Fatalf("%v: %v", kp, err)
		}
		want := BruteForceSelfKCP(ps, 40)
		for i := range got {
			if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
				t.Fatalf("%v pair %d: dist %.12g, want %.12g", kp, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

func TestSelfCPErrors(t *testing.T) {
	single := buildTree(t, []geom.Point{{X: 1, Y: 1}}, 256)
	if _, _, err := SelfClosestPair(single, DefaultOptions(Heap)); err == nil {
		t.Error("self-CP on a single point must fail")
	}
	tr := buildTree(t, uniformPoints(2300, 10, 0), 256)
	if _, _, err := SelfKClosestPairs(tr, 0, DefaultOptions(Heap)); err == nil {
		t.Error("k=0 must be rejected")
	}
}

func TestSelfCPWithDuplicatePoints(t *testing.T) {
	// Two coincident (distinct-ref) points: the closest pair has distance 0.
	ps := append(uniformPoints(2400, 50, 0), geom.Point{X: 0.3, Y: 0.3}, geom.Point{X: 0.3, Y: 0.3})
	tr := buildTree(t, ps, 256)
	pair, _, err := SelfClosestPair(tr, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if pair.Dist != 0 {
		t.Fatalf("dist = %g, want 0", pair.Dist)
	}
	if pair.RefP == pair.RefQ {
		t.Fatalf("self pair returned: %+v", pair)
	}
}

func TestSemiCPMatchesBruteForce(t *testing.T) {
	ps := uniformPoints(2500, 200, 0)
	qs := uniformPoints(2600, 300, 0.4)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	got, stats, err := SemiClosestPairs(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	want := BruteForceSemiCP(ps, qs)
	if len(got) != len(want) {
		t.Fatalf("got %d pairs, want %d", len(got), len(want))
	}
	// Each P point appears exactly once, with its true nearest distance.
	seen := map[int64]bool{}
	for i := range got {
		if seen[got[i].RefP] {
			t.Fatalf("P ref %d appears twice", got[i].RefP)
		}
		seen[got[i].RefP] = true
		if math.Abs(got[i].Dist-want[i].Dist) > 1e-9 {
			t.Fatalf("pair %d: dist %.12g, want %.12g", i, got[i].Dist, want[i].Dist)
		}
	}
	if stats.Accesses() <= 0 {
		t.Error("no accesses recorded")
	}
}

func TestSemiCPAsymmetry(t *testing.T) {
	// Semi-CPQ is directional: |result| = |P| regardless of |Q|.
	ps := uniformPoints(2700, 50, 0)
	qs := uniformPoints(2800, 500, 0)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	ab, _, err := SemiClosestPairs(ta, tb, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	ba, _, err := SemiClosestPairs(tb, ta, DefaultOptions(Heap))
	if err != nil {
		t.Fatal(err)
	}
	if len(ab) != 50 || len(ba) != 500 {
		t.Fatalf("sizes = %d, %d; want 50, 500", len(ab), len(ba))
	}
}

func TestSemiCPEmpty(t *testing.T) {
	empty := buildTree(t, nil, 256)
	tr := buildTree(t, uniformPoints(2900, 10, 0), 256)
	if _, _, err := SemiClosestPairs(empty, tr, DefaultOptions(Heap)); err == nil {
		t.Error("empty P must fail")
	}
	if _, _, err := SemiClosestPairs(tr, empty, DefaultOptions(Heap)); err == nil {
		t.Error("empty Q must fail")
	}
}
