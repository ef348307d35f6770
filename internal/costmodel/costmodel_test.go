package costmodel_test

import (
	"math"
	"testing"

	"repro/internal/core"
	. "repro/internal/costmodel"
	"repro/internal/dataset"
	"repro/internal/rtree"
	"repro/internal/storage"
)

func TestTreeShape(t *testing.T) {
	levels := TreeShape(20000, 14.7)
	if len(levels) != 4 {
		t.Fatalf("20K points: %d levels, want 4 (paper h=4)", len(levels))
	}
	levels = TreeShape(80000, 14.7)
	if len(levels) != 5 {
		t.Fatalf("80K points: %d levels, want 5 (paper h=5)", len(levels))
	}
	// Monotone: counts shrink, sides grow, root is one node of side 1.
	for i := 1; i < len(levels); i++ {
		if levels[i].Count > levels[i-1].Count {
			t.Fatal("level counts must shrink upwards")
		}
		if levels[i].Side < levels[i-1].Side {
			t.Fatal("node sides must grow upwards")
		}
	}
	root := levels[len(levels)-1]
	if root.Count != 1 || root.Side != 1 {
		t.Fatalf("root level = %+v", root)
	}
	if TreeShape(0, 14.7) != nil {
		t.Fatal("no shape for empty tree")
	}
}

func TestAxisProb(t *testing.T) {
	// Identical workspaces, generous c: certain.
	if got := AxisProb(0, 2); math.Abs(got-1) > 1e-9 {
		t.Errorf("AxisProb(0,2) = %g", got)
	}
	// c = 0: zero.
	if got := AxisProb(0, 0); got > 1e-9 {
		t.Errorf("AxisProb(0,0) = %g", got)
	}
	// Identical workspaces: P(|x-y|<=c) = 2c - c^2 for c in [0,1].
	for _, c := range []float64{0.1, 0.3, 0.7} {
		want := 2*c - c*c
		if got := AxisProb(0, c); math.Abs(got-want) > 1e-5 {
			t.Errorf("AxisProb(0,%g) = %g, want %g", c, got, want)
		}
	}
	// Disjoint workspaces shifted by 1: P = c^2/2 for small c (corner
	// triangle of the unit square).
	for _, c := range []float64{0.05, 0.2} {
		want := c * c / 2
		if got := AxisProb(1, c); math.Abs(got-want) > 1e-5 {
			t.Errorf("AxisProb(1,%g) = %g, want %g", c, got, want)
		}
	}
	// Monotone in c, decreasing in shift.
	if AxisProb(0.5, 0.1) > AxisProb(0.5, 0.2) {
		t.Error("axisProb must be monotone in c")
	}
	if AxisProb(0.2, 0.1) < AxisProb(0.8, 0.1) {
		t.Error("axisProb must decrease with shift")
	}
}

func TestExpectedCPDistanceScales(t *testing.T) {
	d1 := ExpectedCPDistance(10000, 10000, 1, 1)
	d2 := ExpectedCPDistance(40000, 40000, 1, 1)
	if d2 >= d1 {
		t.Error("denser data must have a smaller CP distance")
	}
	dk := ExpectedCPDistance(10000, 10000, 1, 100)
	if dk <= d1 {
		t.Error("larger K must have a larger K-th distance")
	}
	dHalf := ExpectedCPDistance(10000, 10000, 0.5, 1)
	if dHalf <= d1 {
		t.Error("smaller overlap must enlarge the expected CP distance")
	}
}

func TestPredictValidation(t *testing.T) {
	bad := []Params{
		{NA: 0, NB: 10, Overlap: 1, K: 1},
		{NA: 10, NB: 10, Overlap: -0.1, K: 1},
		{NA: 10, NB: 10, Overlap: 2, K: 1},
		{NA: 10, NB: 10, Overlap: 1, K: 0},
	}
	for _, p := range bad {
		if _, err := Predict(p); err == nil {
			t.Errorf("Predict(%+v) must fail", p)
		}
	}
}

func TestPredictMonotonicity(t *testing.T) {
	base := Params{NA: 40000, NB: 40000, Overlap: 0.5, K: 1}
	b, err := Predict(base)
	if err != nil {
		t.Fatal(err)
	}
	more := base
	more.Overlap = 1.0
	m, err := Predict(more)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accesses <= b.Accesses {
		t.Error("more overlap must predict more accesses")
	}
	bigK := base
	bigK.K = 10000
	k, err := Predict(bigK)
	if err != nil {
		t.Fatal(err)
	}
	if k.Accesses <= b.Accesses {
		t.Error("larger K must predict more accesses")
	}
	if k.CPDistance <= b.CPDistance {
		t.Error("larger K must predict a larger pruning distance")
	}
	if len(b.LevelPairs) == 0 || b.NodePairs <= 0 {
		t.Errorf("prediction not populated: %+v", b)
	}
}

// TestPredictionAccuracy validates the model against measured HEAP cost on
// uniform workloads: predictions must land within a factor of 3 for
// overlapping workspaces (the regime the model targets).
func TestPredictionAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	build := func(seed int64, n int, shift float64) *rtree.Tree {
		pool := storage.NewBufferPool(storage.NewMemFile(1024), 0)
		tr, err := rtree.New(pool, rtree.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range dataset.Uniform(seed, n) {
			if err := tr.InsertPoint(p.Add(shift, 0), int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}
	for _, cfg := range []struct {
		n       int
		overlap float64
		k       int
	}{
		{10000, 1.0, 1},
		{10000, 1.0, 100},
		{10000, 0.5, 1},
		{20000, 0.25, 10},
	} {
		ta := build(71, cfg.n, 0)
		tb := build(72, cfg.n, 1-cfg.overlap)
		_, stats, err := core.KClosestPairs(ta, tb, cfg.k, core.DefaultOptions(core.Heap))
		if err != nil {
			t.Fatal(err)
		}
		pred, err := Predict(Params{NA: cfg.n, NB: cfg.n, Overlap: cfg.overlap, K: cfg.k})
		if err != nil {
			t.Fatal(err)
		}
		ratio := pred.Accesses / float64(stats.Accesses())
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("n=%d overlap=%g k=%d: predicted %.0f vs measured %d (ratio %.2f)",
				cfg.n, cfg.overlap, cfg.k, pred.Accesses, stats.Accesses(), ratio)
		}
	}
}
