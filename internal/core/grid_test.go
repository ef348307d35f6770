package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestGridBruteEquivalence is the grid leaf-scan property test, mirroring
// TestSweepBruteEquivalence: for every algorithm, tie strategy, data
// distribution and several K, the grid and brute scans must return
// identical result distances, the grid must never evaluate more point
// pairs than the brute scan, and both must match the brute-force oracle.
func TestGridBruteEquivalence(t *testing.T) {
	type workload struct {
		name   string
		ps, qs []geom.Point
	}
	workloads := []workload{
		{"uniform", dataset.Uniform(7, 400), shiftPoints(dataset.Uniform(8, 360), 0.5)},
		{"clustered", dataset.Clustered(9, 400), shiftPoints(dataset.Clustered(10, 360), 0.25)},
	}
	ties := append([]TieStrategy{TieNone}, TieStrategies()...)
	for _, wl := range workloads {
		ta := buildTree(t, wl.ps, 256)
		tb := buildTree(t, wl.qs, 256)
		for _, alg := range Algorithms() {
			for _, tie := range ties {
				for _, k := range []int{1, 10, 100} {
					opts := DefaultOptions(alg)
					opts.Tie = tie
					opts.LeafScan = LeafScanBrute
					brutePairs, bruteStats, err := KClosestPairs(ta, tb, k, opts)
					if err != nil {
						t.Fatalf("%s %v %v k=%d brute: %v", wl.name, alg, tie, k, err)
					}
					opts.LeafScan = LeafScanGrid
					gridPairs, gridStats, err := KClosestPairs(ta, tb, k, opts)
					if err != nil {
						t.Fatalf("%s %v %v k=%d grid: %v", wl.name, alg, tie, k, err)
					}
					if len(gridPairs) != len(brutePairs) {
						t.Fatalf("%s %v %v k=%d: grid returned %d pairs, brute %d",
							wl.name, alg, tie, k, len(gridPairs), len(brutePairs))
					}
					for i := range gridPairs {
						if gridPairs[i].Dist != brutePairs[i].Dist {
							t.Fatalf("%s %v %v k=%d: pair %d dist grid=%.17g brute=%.17g",
								wl.name, alg, tie, k, i, gridPairs[i].Dist, brutePairs[i].Dist)
						}
					}
					if gridStats.PointPairsCompared > bruteStats.PointPairsCompared {
						t.Fatalf("%s %v %v k=%d: grid evaluated %d point pairs, brute %d",
							wl.name, alg, tie, k,
							gridStats.PointPairsCompared, bruteStats.PointPairsCompared)
					}
					checkAgainstBrute(t, gridPairs, wl.ps, wl.qs, k)
				}
			}
		}
	}
}

// TestGridCounterParity pins that the grid scan and the expansion kernel
// leave the paper's cost counters exactly where the sweep scan and the
// textbook per-pair expansion put them at Parallelism 1: they change how
// leaf points and MBR pairs are compared, never which nodes are read.
//
// Leaf scan half: the same query under sweep and under grid reports equal
// accesses, node pairs and sub-pair counters. Kernel half: a kernel join
// and a reference join (refExpandInto below) walk their own copy of the
// trees in lockstep; every expansion must yield the same sub-pairs and the
// same auxiliary bound, and the walks must end on the same four counters.
func TestGridCounterParity(t *testing.T) {
	ps := dataset.Uniform(41, 1200)
	qs := dataset.Uniform(42, 1100)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	ra, rb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 100} {
			opts := DefaultOptions(alg)
			opts.LeafScan = LeafScanSweep
			_, want, err := KClosestPairs(ta, tb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.LeafScan = LeafScanGrid
			_, got, err := KClosestPairs(ta, tb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Accesses() != want.Accesses() || got.NodePairsProcessed != want.NodePairsProcessed ||
				got.SubPairsGenerated != want.SubPairsGenerated || got.SubPairsPruned != want.SubPairsPruned {
				t.Fatalf("%v k=%d: grid counters %+v deviate from sweep %+v", alg, k, got, want)
			}
			if alg == Heap && k == 100 && got.GridCellsProbed == 0 {
				t.Fatalf("%v k=%d: grid scan probed no cells", alg, k)
			}

			jk, err := newJoin(ta, tb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			jr, err := newJoin(ra, rb, k, opts)
			if err != nil {
				t.Fatal(err)
			}
			reads := func(j *join) int64 { return j.ta.Pool().Stats().Reads + j.tb.Pool().Stats().Reads }
			root, err := jk.rootPair()
			if err != nil {
				t.Fatal(err)
			}
			boundsA, err := ra.Bounds()
			if err != nil {
				t.Fatal(err)
			}
			boundsB, err := rb.Bounds()
			if err != nil {
				t.Fatal(err)
			}
			readsK, readsR := reads(jk), reads(jr)
			// The kernel walk recurses with the engine's compact pairs; the
			// reference walk carries each pair's two rectangles down from
			// the parent's entries, as the engine did before the pair lost
			// them, so the lockstep also checks the node-MBR substitution.
			var walk func(p refPair, depth int)
			walk = func(p refPair, depth int) {
				if jk.prunes() && p.minminSq > jk.T() {
					return
				}
				fk, fr := jk.sc.frame(depth), jr.sc.frame(depth)
				if err := jk.readPair(p.nodePair, fk); err != nil {
					t.Fatal(err)
				}
				if err := jr.readPair(p.nodePair, fr); err != nil {
					t.Fatal(err)
				}
				if fk.na.IsLeaf() && fk.nb.IsLeaf() {
					jk.scanLeaves(&fk.na, &fk.nb)
					jr.scanLeaves(&fr.na, &fr.nb)
					return
				}
				subs := jk.expandInto(p.nodePair, &fk.na, &fk.nb, nil)
				ref := refExpandInto(jr, p, &fr.na, &fr.nb)
				if jk.bound != jr.bound || jk.T() != jr.T() {
					t.Fatalf("%v k=%d pair (%d,%d): kernel bound %g (T %g), reference %g (T %g)",
						alg, k, p.a, p.b, jk.bound, jk.T(), jr.bound, jr.T())
				}
				if len(subs) != len(ref) {
					t.Fatalf("%v k=%d pair (%d,%d): kernel kept %d sub-pairs, reference %d",
						alg, k, p.a, p.b, len(subs), len(ref))
				}
				for i := range subs {
					if subs[i] != ref[i].nodePair {
						t.Fatalf("%v k=%d pair (%d,%d) sub-pair %d: kernel %+v, reference %+v",
							alg, k, p.a, p.b, i, subs[i], ref[i].nodePair)
					}
				}
				for _, sp := range ref {
					walk(sp, depth+1)
				}
			}
			walk(refPair{nodePair: root, ra: boundsA, rb: boundsB}, 0)
			jk.release()
			jr.release()
			sk, sr := jk.stats.snapshot(), jr.stats.snapshot()
			if sk.NodePairsProcessed != sr.NodePairsProcessed ||
				sk.SubPairsGenerated != sr.SubPairsGenerated || sk.SubPairsPruned != sr.SubPairsPruned ||
				reads(jk)-readsK != reads(jr)-readsR {
				t.Fatalf("%v k=%d: kernel walk (%d reads, %+v) deviates from reference walk (%d reads, %+v)",
					alg, k, reads(jk)-readsK, sk, reads(jr)-readsR, sr)
			}
			if sk.SubPairsGenerated == 0 || reads(jk) == readsK {
				t.Fatalf("%v k=%d: walk expanded nothing (%+v)", alg, k, sk)
			}
		}
	}
}

// refPair is the queue element the engine used before ISSUE 18: the
// compact pair plus the two MBRs copied from the parent's entries. The
// reference expansion keeps carrying them, so it takes a fixed side's
// rectangle from the parent entry where the kernel takes Node.MBR().
type refPair struct {
	nodePair
	ra, rb geom.Rect
}

// refExpandInto is the expansion the kernel replaced, kept as its
// reference: materialise every candidate sub-pair, compute its metrics
// through the generic per-pair rect calls, tighten the auxiliary bound,
// then filter against the post-tighten T.
func refExpandInto(j *join, p refPair, na, nb *rtree.Node) []refPair {
	subs, mode := refComputeSubs(j, p, na, nb)
	if j.tightens() {
		if b := refBoundCandidate(j, subs, mode, na, nb); b < j.bound {
			j.bound = b
		}
	}
	if !j.prunes() {
		return subs
	}
	T := j.T()
	kept := subs[:0]
	for _, sp := range subs {
		if sp.minminSq > T {
			j.stats.subPairsPruned.Add(1)
			continue
		}
		kept = append(kept, sp)
	}
	return kept
}

// refExpandRaw generates the candidate sub-pairs of a node pair without
// computing metrics.
func refExpandRaw(j *join, p refPair, na, nb *rtree.Node) []refPair {
	var subs []refPair
	la, lb := int32(na.Level-1), int32(nb.Level-1)
	switch j.modeFor(na, nb) {
	case expandBoth:
		for i := range na.Entries {
			for t := range nb.Entries {
				subs = append(subs, refPair{
					nodePair: nodePair{a: na.Entries[i].Child(), b: nb.Entries[t].Child(), la: la, lb: lb},
					ra:       na.Entries[i].Rect, rb: nb.Entries[t].Rect,
				})
			}
		}
	case expandAOnly:
		for i := range na.Entries {
			subs = append(subs, refPair{
				nodePair: nodePair{a: na.Entries[i].Child(), b: p.b, la: la, lb: p.lb},
				ra:       na.Entries[i].Rect, rb: p.rb,
			})
		}
	case expandBOnly:
		for t := range nb.Entries {
			subs = append(subs, refPair{
				nodePair: nodePair{a: p.a, b: nb.Entries[t].Child(), la: p.la, lb: lb},
				ra:       p.ra, rb: nb.Entries[t].Rect,
			})
		}
	}
	return subs
}

// refComputeSubs generates the candidate sub-pairs of a node pair with
// their MINMINDIST (and tie keys when active).
func refComputeSubs(j *join, p refPair, na, nb *rtree.Node) ([]refPair, expandMode) {
	mode := j.modeFor(na, nb)
	subs := refExpandRaw(j, p, na, nb)
	j.stats.subPairsGenerated.Add(int64(len(subs)))

	if j.prunes() {
		for i := range subs {
			subs[i].minminSq = j.metric.MinMinKey(subs[i].ra, subs[i].rb)
		}
	}
	if j.useTie {
		for i := range subs {
			subs[i].tieKey = tieKeyFor(j.opts.Tie, j.metric, subs[i].ra, subs[i].rb,
				j.rootAreaA, j.rootAreaB)
		}
	}
	return subs, mode
}

// refBoundCandidate computes the tightest auxiliary pruning bound the
// sub-pair MBR metrics support, without mutating any join state (+Inf when
// nothing applies): via Inequality 2 (MINMAXDIST holds for at least one
// point pair) when K = 1, or via the MAXMAXDIST prefix rule when K > 1 and
// the technical-report pruning variant is selected.
func refBoundCandidate(j *join, subs []refPair, mode expandMode, na, nb *rtree.Node) float64 {
	bound := math.Inf(1)
	if len(subs) == 0 {
		return bound
	}
	if j.k == 1 {
		for i := range subs {
			var mm float64
			if j.useTie && j.opts.Tie == Tie2 {
				mm = subs[i].tieKey // Tie2's key is exactly the MINMAXDIST key
			} else {
				mm = j.metric.MinMaxKey(subs[i].ra, subs[i].rb)
			}
			if mm < bound {
				bound = mm
			}
		}
		return bound
	}
	if j.opts.KPrune != KPruneMaxMax {
		return bound
	}
	// K > 1: every point pair under a sub-pair has distance at most its
	// MAXMAXDIST (Inequality 1, right side). Sub-pairs cover disjoint
	// point-pair sets, so the prefix of sub-pairs, sorted by ascending
	// MAXMAXDIST, whose guaranteed pair count reaches K bounds the K-th
	// closest distance by the prefix's largest MAXMAXDIST.
	type mc struct {
		maxmaxSq float64
		count    float64
	}
	mcs := make([]mc, len(subs))
	for i := range subs {
		var cntA, cntB float64
		switch mode {
		case expandBoth:
			cntA = j.guaranteedPoints(j.mA, int(subs[i].la))
			cntB = j.guaranteedPoints(j.mB, int(subs[i].lb))
		case expandAOnly:
			cntA = j.guaranteedPoints(j.mA, int(subs[i].la))
			cntB = nodeGuaranteedPoints(j.mB, nb)
		case expandBOnly:
			cntA = nodeGuaranteedPoints(j.mA, na)
			cntB = j.guaranteedPoints(j.mB, int(subs[i].lb))
		}
		mcs[i] = mc{
			maxmaxSq: j.metric.MaxMaxKey(subs[i].ra, subs[i].rb),
			count:    cntA * cntB,
		}
	}
	sort.Slice(mcs, func(x, y int) bool { return mcs[x].maxmaxSq < mcs[y].maxmaxSq })
	var cum float64
	for i := range mcs {
		cum += mcs[i].count
		if cum >= float64(j.k) {
			if mcs[i].maxmaxSq < bound {
				bound = mcs[i].maxmaxSq
			}
			return bound
		}
	}
	return bound
}

// TestGridMetrics exercises the grid's cell side and rebucketing under
// every supported metric (the side is metric-dependent via KeyToDist: δ
// from d^2 keys for L2, d for L1/Linf, d^p for general Lp).
func TestGridMetrics(t *testing.T) {
	ps := dataset.Uniform(31, 300)
	qs := dataset.Uniform(32, 280)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	l3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []geom.Metric{geom.L2(), geom.L1(), geom.LInf(), l3} {
		for _, alg := range []Algorithm{SortedDistances, Heap} {
			opts := DefaultOptions(alg)
			opts.Metric = m
			opts.LeafScan = LeafScanBrute
			want, _, err := KClosestPairs(ta, tb, 20, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.LeafScan = LeafScanGrid
			got, gridStats, err := KClosestPairs(ta, tb, 20, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v %v: got %d pairs, want %d", m, alg, len(got), len(want))
			}
			for i := range got {
				if math.Abs(got[i].Dist-want[i].Dist) > 1e-12 {
					t.Fatalf("%v %v pair %d: dist %.17g, want %.17g",
						m, alg, i, got[i].Dist, want[i].Dist)
				}
			}
			if gridStats.PointPairsCompared <= 0 {
				t.Fatalf("%v %v: no point pairs counted", m, alg)
			}
		}
	}
}

// TestGridParallelEquivalence runs the grid scan under the parallel HEAP
// engine (which also exercises the heap-batch consumption path): same
// distances as the sequential brute scan.
func TestGridParallelEquivalence(t *testing.T) {
	ps := dataset.Uniform(21, 900)
	qs := dataset.Uniform(22, 800)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, k := range []int{1, 25, 100} {
		opts := DefaultOptions(Heap)
		opts.LeafScan = LeafScanBrute
		want, _, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.LeafScan = LeafScanGrid
		opts.Parallelism = 4
		got, _, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d pair %d: dist %.17g, want %.17g", k, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestBatchExpandEquivalence runs the sequential HEAP algorithm with
// batched heap dequeues: the result distances must match the strict
// best-first run exactly (every batch member is re-checked against the
// bound before processing).
func TestBatchExpandEquivalence(t *testing.T) {
	ps := dataset.Clustered(51, 800)
	qs := dataset.Clustered(52, 700)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, k := range []int{1, 10, 100} {
		opts := DefaultOptions(Heap)
		want, _, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.BatchExpand = true
		got, stats, err := KClosestPairs(ta, tb, k, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d pairs, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("k=%d pair %d: dist %.17g, want %.17g", k, i, got[i].Dist, want[i].Dist)
			}
		}
		if stats.HeapBatches <= 0 || stats.HeapBatchPairs < stats.HeapBatches {
			t.Fatalf("k=%d: implausible heap batch counters: %d batches, %d pairs",
				k, stats.HeapBatches, stats.HeapBatchPairs)
		}
	}
}

// TestGridScratchZeroAlloc pins the steady-state allocation discipline of
// the grid scan's pooled scratch: once warm, build and probe allocate
// nothing.
func TestGridScratchZeroAlloc(t *testing.T) {
	pts := dataset.Uniform(61, 64)
	entries := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		entries[i] = rtree.Entry{Rect: geom.Rect{Min: p, Max: p}, Ref: int64(i)}
	}
	g := new(gridScratch)
	g.build(entries, 0.05) // warm: grows every slice to capacity
	allocs := testing.AllocsPerRun(100, func() {
		g.build(entries, 0.05)
		for cx := int32(-1); cx <= 1; cx++ {
			for cy := int32(-1); cy <= 1; cy++ {
				for bi := g.probe(cx, cy); bi >= 0; bi = g.next[bi] {
					_ = entries[bi]
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm grid build+probe allocates %v per op, want 0", allocs)
	}
}

// TestKernelScratchZeroAlloc pins the same discipline for the batched
// expansion kernel's SoA scratch: warm fills and key-buffer growth reuse
// capacity.
func TestKernelScratchZeroAlloc(t *testing.T) {
	pts := dataset.Uniform(62, 32)
	entries := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		entries[i] = rtree.Entry{Rect: geom.Rect{Min: p, Max: p}, Ref: int64(i)}
	}
	sc := new(kernelScratch)
	n := len(entries) * len(entries)
	sc.fillA(entries)
	sc.fillB(entries)
	sc.keys = growF64(sc.keys, n)
	sc.maxmax = growF64(sc.maxmax, n)
	allocs := testing.AllocsPerRun(100, func() {
		sc.fillA(entries)
		sc.fillB(entries)
		sc.keys = growF64(sc.keys, n)
		sc.maxmax = growF64(sc.maxmax, n)
	})
	if allocs != 0 {
		t.Fatalf("warm kernel scratch fill allocates %v per op, want 0", allocs)
	}
}

// FuzzGridCells fuzzes the grid's soundness invariant: for any two points
// within δ of each other (per axis) and any usable cell side derived from
// δ, the bucketed cell coordinates differ by at most 1 on each axis — the
// 3×3 probe neighborhood misses no qualifying pair.
func FuzzGridCells(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)                     // δ = 0: must be rejected as unusable
	f.Add(0.5, 0.5, 0.5, 0.5, 1e-9)                    // coincident points, tiny δ
	f.Add(5e-324, 0.0, 0.0, 5e-324, 1e-300)            // denormal coordinates and δ
	f.Add(0.25, 0.75, 0.26, 0.74, 0.02)                // ordinary near pair
	f.Add(-1e9, 1e9, -1e9+0.1, 1e9-0.1, 0.5)           // large magnitudes near the 2^30 cap
	f.Add(1.0, 1.0, math.Nextafter(1, 2), 1.0, 5e-324) // adjacent representables
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, delta float64) {
		for _, v := range []float64{ax, ay, bx, by, delta} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		if delta < 0 {
			delta = -delta
		}
		side := delta * gridSlack
		maxAbs := math.Max(math.Max(math.Abs(ax), math.Abs(ay)),
			math.Max(math.Abs(bx), math.Abs(by)))
		if !gridSideUsable(side, maxAbs) {
			// The scan falls back to the sweep for these; nothing to check.
			t.Skip()
		}
		if math.Abs(ax-bx) > delta || math.Abs(ay-by) > delta {
			t.Skip()
		}
		inv := 1 / side
		cax := int32(math.Floor(ax * inv))
		cay := int32(math.Floor(ay * inv))
		cbx := int32(math.Floor(bx * inv))
		cby := int32(math.Floor(by * inv))
		if dx := cax - cbx; dx < -1 || dx > 1 {
			t.Fatalf("x cells %d and %d not adjacent for |%g-%g| <= %g, side %g",
				cax, cbx, ax, bx, delta, side)
		}
		if dy := cay - cby; dy < -1 || dy > 1 {
			t.Fatalf("y cells %d and %d not adjacent for |%g-%g| <= %g, side %g",
				cay, cby, ay, by, delta, side)
		}
	})
}
