package core

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// rewriteLeafPages stands in for a foreign writer — an index file from
// before leaves were stored x-ordered: it rearranges the entry slots of
// every leaf page in place, on the raw page bytes, behind the tree's back.
// order receives the slot count and returns the new sequence of old slots.
// The layout constants are rtree's page format (node.go): an 8-byte header
// with the level at offset 2 and the count at offset 4, then 40-byte slots.
func rewriteLeafPages(t *testing.T, tr *rtree.Tree, order func(n int) []int) {
	t.Helper()
	const header, slot = 8, 40
	pool := tr.Pool()
	page := make([]byte, pool.PageSize())
	out := make([]byte, pool.PageSize())
	var leaves []storage.PageID
	if err := tr.Walk(func(n *rtree.Node) error {
		if n.IsLeaf() {
			leaves = append(leaves, n.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range leaves {
		if err := pool.File().ReadPage(id, page); err != nil {
			t.Fatal(err)
		}
		if level := binary.LittleEndian.Uint16(page[2:]); level != 0 {
			t.Fatalf("page %d: level %d, not a leaf", id, level)
		}
		copy(out, page)
		n := int(binary.LittleEndian.Uint16(page[4:]))
		for to, from := range order(n) {
			copy(out[header+to*slot:header+(to+1)*slot], page[header+from*slot:header+(from+1)*slot])
		}
		if err := pool.Write(id, out); err != nil {
			t.Fatal(err)
		}
	}
}

func leavesOrdered(t *testing.T, tr *rtree.Tree) (ordered, leaves int) {
	t.Helper()
	if err := tr.Walk(func(n *rtree.Node) error {
		if n.IsLeaf() {
			leaves++
			if rtree.LeafOrdered(n.Entries) {
				ordered++
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ordered, leaves
}

// TestUnorderedLeafTwins: the leaf scan verifies the page order, it does
// not trust it. Twin trees over one point set — one as the writer left it,
// one whose leaf pages were rewritten reversed or shuffled — must return
// the brute-force top K in (distSq, refP, refQ) order, and with the same
// Stats field by field, from every algorithm, K and metric.
//
// PointPairsCompared is held equal only where the in-leaf order is
// determined by x alone: with distinct x the scan's sort restores exactly
// the writer's sequence, and with all x equal no pair is ever skipped.
// In between (runs of equal x inside a leaf) the stable sort keeps the
// foreign page's order within a run, so the moment the threshold tightens
// inside one scan, and with it that count only, may differ.
func TestUnorderedLeafTwins(t *testing.T) {
	quantX := func(pts []geom.Point, steps float64) []geom.Point {
		out := slices.Clone(pts)
		for i := range out {
			out[i].X = math.Floor(out[i].X*steps) / steps
		}
		return out
	}
	reversed := func(n int) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = n - 1 - i
		}
		return p
	}
	rng := rand.New(rand.NewSource(99))
	shuffled := func(n int) []int { return rng.Perm(n) }

	sets := []struct {
		name       string
		ps, qs     []geom.Point
		pointPairs bool // PointPairsCompared must match too
	}{
		{"distinct-x", uniformPoints(610, 500, 0), uniformPoints(611, 450, 0.3), true},
		{"all-x-equal", quantX(uniformPoints(612, 300, 0), 1), quantX(uniformPoints(613, 280, 0), 1), true},
		{"runs-of-equal-x", quantX(uniformPoints(614, 500, 0), 32), quantX(uniformPoints(615, 450, 0), 32), false},
	}
	orders := []struct {
		name  string
		order func(n int) []int
	}{{"reversed", reversed}, {"shuffled", shuffled}}

	for _, set := range sets {
		for _, ord := range orders {
			ta, tb := buildTree(t, set.ps, 256), buildTree(t, set.qs, 256)
			ua, ub := buildTree(t, set.ps, 256), buildTree(t, set.qs, 256)
			rewriteLeafPages(t, ua, ord.order)
			rewriteLeafPages(t, ub, ord.order)
			if ordered, leaves := leavesOrdered(t, ta); ordered != leaves {
				t.Fatalf("%s: writer left %d of %d leaves ordered", set.name, ordered, leaves)
			}
			// (Equal x everywhere: any order is x-ordered; only ties move.)
			if ordered, leaves := leavesOrdered(t, ua); set.name != "all-x-equal" && ordered*2 > leaves {
				t.Fatalf("%s/%s: %d of %d rewritten leaves still ordered", set.name, ord.name, ordered, leaves)
			}
			for _, m := range []geom.Metric{geom.L2(), geom.L1(), geom.LInf()} {
				for _, k := range []int{1, 10, 1000} {
					want := BruteForceKCPMetric(set.ps, set.qs, k, m)
					for _, alg := range Algorithms() {
						name := fmt.Sprintf("%s/%s/%v/%v/k=%d", set.name, ord.name, m, alg, k)
						opts := DefaultOptions(alg)
						opts.Metric = m
						got, stats, err := KClosestPairs(ta, tb, k, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						ugot, ustats, err := KClosestPairs(ua, ub, k, opts)
						if err != nil {
							t.Fatalf("%s (unordered): %v", name, err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s: ordered twin deviates from brute force", name)
						}
						if !slices.Equal(ugot, want) {
							t.Fatalf("%s: unordered twin deviates from brute force", name)
						}
						if !set.pointPairs {
							ustats.PointPairsCompared = stats.PointPairsCompared
						}
						if stats != ustats {
							t.Fatalf("%s: stats differ\n ordered   %+v\n unordered %+v", name, stats, ustats)
						}
					}
				}
			}
		}
	}
}

// TestUnorderedLeavesOtherQueryModes: the query modes that do not go
// through the sequential K-CPQ drivers — the parallel engine, the self
// join, both semi joins and the range join — answer identically from an
// index whose leaf pages are shuffled.
func TestUnorderedLeavesOtherQueryModes(t *testing.T) {
	ps, qs := uniformPoints(620, 600, 0), uniformPoints(621, 500, 0.2)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	ua, ub := buildTree(t, ps, 256), buildTree(t, qs, 256)
	rng := rand.New(rand.NewSource(7))
	rewriteLeafPages(t, ua, rng.Perm)
	rewriteLeafPages(t, ub, rng.Perm)

	par := DefaultOptions(Heap)
	par.Parallelism = 3
	want := BruteForceKCP(ps, qs, 50)
	for name, trees := range map[string][2]*rtree.Tree{"ordered": {ta, tb}, "unordered": {ua, ub}} {
		got, _, err := KClosestPairs(trees[0], trees[1], 50, par)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("parallel, %s leaves: deviates from brute force", name)
		}
	}

	opts := DefaultOptions(Heap)
	self, selfStats, err := SelfKClosestPairs(ta, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	uself, uselfStats, err := SelfKClosestPairs(ua, 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(self, uself) || !slices.Equal(self, BruteForceSelfKCP(ps, 40)) || selfStats != uselfStats {
		t.Fatalf("self join differs on unordered leaves:\n %+v\n %+v", selfStats, uselfStats)
	}

	for name, semi := range map[string]func(a, b *rtree.Tree, o Options) ([]Pair, Stats, error){
		"semi": SemiClosestPairs, "semi-batched": SemiClosestPairsBatched,
	} {
		got, _, err := semi(ta, tb, opts)
		if err != nil {
			t.Fatal(err)
		}
		ugot, _, err := semi(ua, ub, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ps) || len(ugot) != len(got) {
			t.Fatalf("%s: %d and %d pairs for %d points", name, len(got), len(ugot), len(ps))
		}
		for i := range got {
			if got[i].Dist != ugot[i].Dist {
				t.Fatalf("%s pair %d: dist %g on ordered leaves, %g on unordered", name, i, got[i].Dist, ugot[i].Dist)
			}
		}
	}

	within := func(a, b *rtree.Tree) []Pair {
		var out []Pair
		if _, err := WithinDistance(a, b, 0.02, opts, func(p Pair) bool { out = append(out, p); return true }); err != nil {
			t.Fatal(err)
		}
		slices.SortFunc(out, func(x, y Pair) int {
			if x.RefP != y.RefP {
				return int(x.RefP - y.RefP)
			}
			return int(x.RefQ - y.RefQ)
		})
		return out
	}
	if w, uw := within(ta, tb), within(ua, ub); len(w) == 0 || !slices.Equal(w, uw) {
		t.Fatalf("range join: %d pairs on ordered leaves, %d on unordered, or not the same ones", len(w), len(uw))
	}
}

// TestQueriesAfterHeavyCondensation pins the one place the leaf order
// reaches the tree's shape: a dissolved leaf's entries are reinserted in the
// order its page holds them, x order, so a tree that has condensed is not
// the tree the same operations built when pages kept arrival order
// (DESIGN.md §8). It must be as good a tree: on 1 KB pages (m = 7, a
// dissolved leaf orphans up to six entries) four fifths of each tree are
// deleted left to right, and what is left passes CheckInvariants, has every
// leaf x-ordered, and answers every algorithm, the parallel engine and the
// self join with the brute-force result over the survivors.
func TestQueriesAfterHeavyCondensation(t *testing.T) {
	const n, keep = 6000, 1200
	thin := func(seed int64, x0 float64) (*rtree.Tree, []geom.Point) {
		pts := uniformPoints(seed, n, x0)
		tr := buildTree(t, pts, 1024)
		before, err := tr.NodeCount()
		if err != nil {
			t.Fatal(err)
		}
		doomed := make([]int, 0, n-keep) // refs keep..n-1, so survivors keep ref == index
		for i := keep; i < n; i++ {
			doomed = append(doomed, i)
		}
		slices.SortFunc(doomed, func(a, b int) int { return cmp.Compare(pts[a].X, pts[b].X) })
		for _, i := range doomed {
			if err := tr.DeletePoint(pts[i], int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		after, err := tr.NodeCount()
		if err != nil {
			t.Fatal(err)
		}
		if after[0]*2 > before[0] {
			t.Fatalf("deletes dissolved too few leaves to test condensation: %d of %d left", after[0], before[0])
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if ordered, leaves := leavesOrdered(t, tr); ordered != leaves {
			t.Fatalf("%d of %d leaves x-ordered after condensation", ordered, leaves)
		}
		return tr, pts[:keep]
	}
	ta, ps := thin(640, 0)
	tb, qs := thin(641, 0.25)

	for _, k := range []int{1, 10, 1000} {
		want := BruteForceKCP(ps, qs, k)
		for _, alg := range Algorithms() {
			got, _, err := KClosestPairs(ta, tb, k, DefaultOptions(alg))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%v k=%d: deviates from brute force over the survivors", alg, k)
			}
		}
	}
	par := DefaultOptions(Heap)
	par.Parallelism = 2
	if got, _, err := KClosestPairs(ta, tb, 100, par); err != nil || !slices.Equal(got, BruteForceKCP(ps, qs, 100)) {
		t.Fatalf("parallel: deviates from brute force over the survivors (err %v)", err)
	}
	if got, _, err := SelfKClosestPairs(ta, 40, DefaultOptions(Heap)); err != nil || !slices.Equal(got, BruteForceSelfKCP(ps, 40)) {
		t.Fatalf("self join: deviates from brute force over the survivors (err %v)", err)
	}
}
