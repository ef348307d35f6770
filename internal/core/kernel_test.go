package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/obs/explain"
	"repro/internal/rtree"
)

// parityInput is one tree pair of the kernel parity tests, built twice so
// the kernel join and the reference join count their own page reads.
type parityInput struct {
	name           string
	ka, kb, ra, rb *rtree.Tree
	height         HeightStrategy
}

// parityInputs are two uniform pairs plus the golden configurations of
// TestGoldenStats (equal heights; a tall insertion-built, delete-thinned
// tree on either side, under both height treatments). On 256-byte pages
// M = 6 and m = 2: a sub-pair of leaves guarantees c = 4 point pairs, so the
// K > 1 rule selects rank r = 25 of at most 36 at K = 100, and at K = 10⁴
// no expansion guarantees K pairs at all (the rule never applies). On 1 KB
// pages (M = 21, m = 7, c = 49 under leaf parents) K = 10⁴ selects r = 205
// of up to 441, and r = 5 one level up.
func parityInputs(t *testing.T) []parityInput {
	t.Helper()
	ps, qs := dataset.Uniform(41, 1200), dataset.Uniform(42, 1100)
	pl, ql := dataset.Uniform(43, 3000), dataset.Uniform(44, 2600)
	ksame, kdiff := goldenTrees(t)
	rsame, rdiff := goldenTrees(t)
	return []parityInput{
		{"uniform", buildTree(t, ps, 256), buildTree(t, qs, 256), buildTree(t, ps, 256), buildTree(t, qs, 256), FixAtRoot},
		{"uniform-1k", buildTree(t, pl, 1024), buildTree(t, ql, 1024), buildTree(t, pl, 1024), buildTree(t, ql, 1024), FixAtRoot},
		{"same", ksame[0], ksame[1], rsame[0], rsame[1], FixAtRoot},
		{"tallP/fix-at-root", kdiff[0], kdiff[1], rdiff[0], rdiff[1], FixAtRoot},
		{"tallP/fix-at-leaves", kdiff[0], kdiff[1], rdiff[0], rdiff[1], FixAtLeaves},
		{"tallQ/fix-at-root", kdiff[1], kdiff[0], rdiff[1], rdiff[0], FixAtRoot},
		{"tallQ/fix-at-leaves", kdiff[1], kdiff[0], rdiff[1], rdiff[0], FixAtLeaves},
	}
}

var parityKs = []int{1, 100, 10000}

// TestKernelCounterParity pins that the expansion kernel leaves the paper's
// cost counters exactly where the textbook per-pair expansion puts them: it
// changes how MBR pairs are compared, never which nodes are read. A kernel
// join and a reference join (refExpandInto below) walk their own copy of
// the trees in lockstep; every expansion must yield the same sub-pairs and
// the same auxiliary bound, and the walks must end on the same four
// counters, the same sequence of values assigned to the auxiliary bound and
// the same EXPLAIN bound trajectory. The reference computes the bound
// candidate the textbook way — every sub-pair's metric, a full sort — where
// the kernel evaluates only what lies below the current bound and selects.
func TestKernelCounterParity(t *testing.T) {
	for _, in := range parityInputs(t) {
		for _, alg := range Algorithms() {
			for _, k := range parityKs {
				name := fmt.Sprintf("%s/%v/k=%d", in.name, alg, k)
				opts := DefaultOptions(alg)
				opts.Height = in.height
				jk, err := newJoin(in.ka, in.kb, k, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				jr, err := newJoin(in.ra, in.rb, k, opts, false)
				if err != nil {
					t.Fatal(err)
				}
				capK, capR := new(explain.Capture), new(explain.Capture)
				jk.observe(capK, k, false, 1)
				jr.observe(capR, k, false, 1)
				reads := func(j *join) int64 { return j.ta.Pool().Stats().Reads + j.tb.Pool().Stats().Reads }
				root, err := jk.rootPair()
				if err != nil {
					t.Fatal(err)
				}
				boundsA, err := in.ra.Bounds()
				if err != nil {
					t.Fatal(err)
				}
				boundsB, err := in.rb.Bounds()
				if err != nil {
					t.Fatal(err)
				}
				readsK, readsR := reads(jk), reads(jr)
				var appliedK, appliedR []float64 // every value assigned to j.bound
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
					if _, _, err := jk.readPair(p.nodePair, fk); err != nil {
						t.Fatal(err)
					}
					if _, _, err := jr.readPair(p.nodePair, fr); err != nil {
						t.Fatal(err)
					}
					if fk.na.IsLeaf() && fk.nb.IsLeaf() {
						jk.scanLeaves(&fk.na, &fk.nb)
						jk.recordBound(srcKHeap)
						jr.scanLeaves(&fr.na, &fr.nb)
						jr.recordBound(srcKHeap)
						return
					}
					beforeK, beforeR := jk.bound, jr.bound
					subs := jk.expandInto(p.nodePair, &fk.na, &fk.nb, nil)
					ref := refExpandInto(jr, p, &fr.na, &fr.nb)
					if jk.bound != beforeK {
						appliedK = append(appliedK, jk.bound)
					}
					if jr.bound != beforeR {
						appliedR = append(appliedR, jr.bound)
					}
					if jk.bound != jr.bound || jk.T() != jr.T() {
						t.Fatalf("%s pair (%d,%d): kernel bound %g (T %g), reference %g (T %g)",
							name, p.a, p.b, jk.bound, jk.T(), jr.bound, jr.T())
					}
					if len(subs) != len(ref) {
						t.Fatalf("%s pair (%d,%d): kernel kept %d sub-pairs, reference %d",
							name, p.a, p.b, len(subs), len(ref))
					}
					for i := range subs {
						if subs[i] != ref[i].nodePair {
							t.Fatalf("%s pair (%d,%d) sub-pair %d: kernel %+v, reference %+v",
								name, p.a, p.b, i, subs[i], ref[i].nodePair)
						}
					}
					for _, sp := range ref {
						walk(sp, depth+1)
					}
				}
				walk(refPair{nodePair: root, ra: boundsA, rb: boundsB}, 0)
				jk.release()
				jr.release()
				sk, sr := jk.stats, jr.stats
				if sk.nodePairsProcessed != sr.nodePairsProcessed ||
					sk.subPairsGenerated != sr.subPairsGenerated || sk.subPairsPruned != sr.subPairsPruned ||
					reads(jk)-readsK != reads(jr)-readsR {
					t.Fatalf("%s: kernel walk (%d reads, %+v) deviates from reference walk (%d reads, %+v)",
						name, reads(jk)-readsK, sk, reads(jr)-readsR, sr)
				}
				if sk.subPairsGenerated == 0 || reads(jk) == readsK {
					t.Fatalf("%s: walk expanded nothing (%+v)", name, sk)
				}
				if !slices.Equal(appliedK, appliedR) {
					t.Fatalf("%s: auxiliary bound took the values\n kernel    %v\n reference %v", name, appliedK, appliedR)
				}
				if jk.tightens() && (k <= 100 || in.name == "uniform-1k") && len(appliedK) == 0 {
					t.Fatalf("%s: the auxiliary bound was never applied", name)
				}
				if stepsK, stepsR := boundSteps(capK), boundSteps(capR); !slices.Equal(stepsK, stepsR) {
					t.Fatalf("%s: bound trajectories differ\n kernel    %v\n reference %v", name, stepsK, stepsR)
				} else if jk.prunes() && len(stepsK) == 0 {
					t.Fatalf("%s: no bound step", name)
				}
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
		if b := refBoundCandidate(j, subs, mode, na, nb); b < j.T() {
			j.bound = b
			j.recordBound(j.boundSource())
		}
	}
	if !j.prunes() {
		return subs
	}
	T := j.T()
	kept := subs[:0]
	for _, sp := range subs {
		if sp.minminSq > T {
			j.stats.subPairsPruned++
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
	j.stats.subPairsGenerated += int64(len(subs))

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

// expansionOutcome is what a caller sees of one expansion: the sub-pairs
// it emits, in order, the counters it adds, the bound candidate, and the
// scratch rows and columns it keyed.
type expansionOutcome struct {
	subs              []nodePair
	generated, pruned int64
	bound             float64
	rows, cols        int
}

// expandOnce runs one expansion of (na, nb) on fresh counters: the kernel
// cut at cut, finish at T.
func expandOnce(j *join, p nodePair, na, nb *rtree.Node, cut, T float64) expansionOutcome {
	j.stats = workCounters{}
	var sc kernelScratch
	e := j.beginExpand(&sc, p, na, nb, cut)
	subs := e.finish(nil, T)
	return expansionOutcome{subs, j.stats.subPairsGenerated, j.stats.subPairsPruned, e.bound, e.nA, e.nB}
}

// restrictionNode builds a node at level whose children are rects, child i
// on page base+i.
func restrictionNode(level int, base int64, rects ...geom.Rect) *rtree.Node {
	n := &rtree.Node{Level: level}
	for i, r := range rects {
		n.Entries = append(n.Entries, rtree.Entry{Rect: r, Ref: base + int64(i)})
	}
	return n
}

func box(x0, y0, x1, y1 float64) geom.Rect {
	return geom.Rect{Min: geom.Point{X: x0, Y: y0}, Max: geom.Point{X: x1, Y: y1}}
}

// TestKernelRestrictionExact holds the restricted kernel to the
// unrestricted one: an expansion cut at T must emit the same sub-pairs in
// the same order, count the same generated and pruned sub-pairs and offer
// the same bound candidate (whenever one is below T, the only case a
// caller applies) as the same expansion cut at +Inf and filtered at T.
// The hand-built pairs spread one node's children along x and the other's
// along y, on both sides of the other node's MBR, so that whole rows and
// whole columns lie beyond the cut in every direction; the
// cuts are every row's and column's lower bound, one ulp either side of
// it, and every sub-pair key, so a cut equal to a row's bound, which must
// keep the row, is among them. The diagonal and the one-sided modes are
// never restricted and must come out the same too.
func TestKernelRestrictionExact(t *testing.T) {
	l3, err := geom.Lp(3)
	if err != nil {
		t.Fatal(err)
	}
	var as, bs, cs []geom.Rect
	for i := 0; i < 6; i++ {
		f := float64(i)
		as = append(as, box(3*f-8, 0.1*f, 3*f-7, 0.1*f+1))
		bs = append(bs, box(0.5*f-1, 2*f-5, 0.5*f, 2*f-4.5))
		cs = append(cs, box(0.7*f, 0.4*f, 0.7*f+1.5, 0.4*f+1.2))
	}
	na, nb := restrictionNode(1, 100, as...), restrictionNode(1, 200, bs...)
	diag := restrictionNode(1, 300, cs...)
	tallA := restrictionNode(2, 400, as...)
	tallB := restrictionNode(2, 500, bs...)
	cases := []struct {
		name     string
		na, nb   *rtree.Node
		p        nodePair
		self     bool
		mode     expandMode
		restrict bool
	}{
		{"both", na, nb, nodePair{a: 1, b: 2, la: 1, lb: 1}, false, expandBoth, true},
		{"both-swapped", nb, na, nodePair{a: 2, b: 1, la: 1, lb: 1}, false, expandBoth, true},
		{"diagonal", diag, diag, nodePair{a: 3, b: 3, la: 1, lb: 1}, true, expandBoth, false},
		{"a-only", tallA, nb, nodePair{a: 4, b: 2, la: 2, lb: 1}, false, expandAOnly, false},
		{"b-only", na, tallB, nodePair{a: 1, b: 5, la: 1, lb: 2}, false, expandBOnly, false},
	}
	for _, m := range []geom.Metric{geom.L1(), geom.L2(), geom.LInf(), l3} {
		for _, c := range cases {
			// Every key a cut can meet: the row and column lower bounds
			// and the sub-pair keys themselves.
			var cuts []float64
			ra, rb := c.na.MBR(), c.nb.MBR()
			for i := range c.na.Entries {
				cuts = append(cuts, m.MinMinKey(c.na.Entries[i].Rect, rb))
				for t := range c.nb.Entries {
					cuts = append(cuts, m.MinMinKey(c.na.Entries[i].Rect, c.nb.Entries[t].Rect))
				}
			}
			for t := range c.nb.Entries {
				cuts = append(cuts, m.MinMinKey(ra, c.nb.Entries[t].Rect))
			}
			for _, v := range slices.Clone(cuts) {
				cuts = append(cuts, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
			}
			for _, k := range []int{1, 10} { // K = 10 reads the 3rd-smallest MAXMAXDIST (c = 4)
				name := fmt.Sprintf("%v/%s/k=%d", m, c.name, k)
				opts := DefaultOptions(Heap)
				j := &join{k: k, opts: opts, metric: m, mA: 2, mB: 2, self: c.self,
					useTie: true, rootAreaA: 400, rootAreaB: 400}
				if got := j.modeFor(c.na, c.nb); got != c.mode {
					t.Fatalf("%s: mode %v, want %v", name, got, c.mode)
				}
				restricted := false
				for _, cut := range cuts {
					got := expandOnce(j, c.p, c.na, c.nb, cut, cut)
					want := expandOnce(j, c.p, c.na, c.nb, math.Inf(1), cut)
					if !(want.bound < cut) {
						want.bound = math.Inf(1)
					}
					if !slices.Equal(got.subs, want.subs) {
						t.Fatalf("%s cut %g: sub-pairs\n restricted   %v\n unrestricted %v", name, cut, got.subs, want.subs)
					}
					if got.generated != want.generated || got.pruned != want.pruned || got.bound != want.bound {
						t.Fatalf("%s cut %g: restricted generated %d pruned %d bound %g, unrestricted %d, %d, %g",
							name, cut, got.generated, got.pruned, got.bound, want.generated, want.pruned, want.bound)
					}
					if got.generated != int64(len(got.subs))+got.pruned {
						t.Fatalf("%s cut %g: %d generated, %d emitted, %d pruned", name, cut, got.generated, len(got.subs), got.pruned)
					}
					if got.rows < want.rows || got.cols < want.cols {
						restricted = true
					}
				}
				if restricted != c.restrict {
					t.Fatalf("%s: kernel restricted %v, want %v", name, restricted, c.restrict)
				}
			}
		}
	}
	// A cut equal to a row's lower bound keys that row; one ulp below, the
	// row goes.
	j := &join{k: 1, opts: DefaultOptions(Exhaustive), metric: geom.L2()}
	cut := geom.L2().MinMinKey(as[4], nb.MBR()) // 2.5²: a[4]'s x gap to the b side
	p := nodePair{a: 1, b: 2, la: 1, lb: 1}
	if got := expandOnce(j, p, na, nb, cut, cut); got.rows != 3 {
		t.Fatalf("cut at row 4's bound %g keyed %d rows, want rows 2-4", cut, got.rows)
	}
	below := math.Nextafter(cut, 0)
	if got := expandOnce(j, p, na, nb, below, below); got.rows != 2 {
		t.Fatalf("cut %g below row 4's bound keyed %d rows, want rows 2-3", below, got.rows)
	}
}

// TestKernelScratchZeroAlloc pins the steady-state allocation discipline
// of the batched expansion kernel's SoA scratch: warm fills, the row and
// column index maps, the restriction that compacts them and key-buffer
// growth reuse capacity.
func TestKernelScratchZeroAlloc(t *testing.T) {
	pts := dataset.Uniform(62, 32)
	entries := make([]rtree.Entry, len(pts))
	for i, p := range pts {
		entries[i] = rtree.Entry{Rect: geom.Rect{Min: p, Max: p}, Ref: int64(i)}
	}
	sc := new(kernelScratch)
	e := expansion{j: &join{metric: geom.L2()}, sc: sc}
	far := box(1, 1, 2, 2)
	n := len(entries) * len(entries)
	run := func() {
		sc.fillA(entries)
		sc.fillB(entries)
		e.restrict(far, far, 0.5) // keeps the points within 0.7 of (1, 1)
		sc.keys = grow(sc.keys, n)
		sc.maxmax = grow(sc.maxmax, n)
	}
	run()
	if e.nA == 0 || e.nA == len(entries) || e.nB == 0 || e.nB == len(entries) {
		t.Fatalf("restrict kept %d rows and %d columns of %d", e.nA, e.nB, len(entries))
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Fatalf("warm kernel scratch fill allocates %v per op, want 0", allocs)
	}
}

// BenchmarkBoundCandidate is the K > 1 bound of one 14 x 14 expansion with
// nothing known yet (current bound +Inf, so every sub-pair is a candidate:
// the most the selection ever has to look at). With m = 7 a sub-pair of
// leaves guarantees 49 point pairs: K = 40 reads off the minimum (r = 1,
// the benchmark workloads' case), K = 64·49 selects the 64th of 196.
func BenchmarkBoundCandidate(b *testing.B) {
	node := func(seed int64) *rtree.Node {
		n := &rtree.Node{Level: 1}
		for i, p := range dataset.Uniform(seed, 14) {
			n.Entries = append(n.Entries, rtree.Entry{Rect: geom.Rect{Min: p, Max: p.Add(0.05, 0.05)}, Ref: int64(i)})
		}
		return n
	}
	na, nb := node(81), node(82)
	for _, r := range []int{1, 64} {
		b.Run(fmt.Sprintf("r=%d", r), func(b *testing.B) {
			j := &join{k: r*49 - 9, opts: DefaultOptions(Heap), metric: geom.L2(), mA: 7, mB: 7}
			var sc kernelScratch
			e := j.beginExpand(&sc, nodePair{}, na, nb, math.Inf(1)) // fills the scratch, computes the keys
			if math.IsInf(e.bound, 1) {
				b.Fatal("no bound candidate")
			}
			var sink float64
			candidate := func() { sink = e.boundCandidate(math.Inf(1)) }
			if allocs := testing.AllocsPerRun(100, candidate); allocs != 0 || sink != e.bound {
				b.Fatalf("a warm bound candidate allocates %v (want 0) and is %g (want %g)", allocs, sink, e.bound)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				candidate()
			}
		})
	}
}

// BenchmarkExpand is one level-1 × level-1 expansion, kernel and finish, of
// two 25-entry nodes whose MBRs overlap in the band 0.9 <= x <= 1.1, under
// the K = 100 join's tie keys and MAXMAXDIST bound: at T = +Inf, where
// every row and column is keyed; at the T that keeps a quarter of the rows
// (the seventh-smallest row bound); and on a self join's diagonal at that
// T, which is never restricted. It reports the rows, columns and
// sub-pairs kept per expansion.
func BenchmarkExpand(b *testing.B) {
	node := func(seed int64, dx float64) *rtree.Node {
		n := &rtree.Node{Level: 1}
		for i, p := range dataset.Uniform(seed, 25) {
			n.Entries = append(n.Entries, rtree.Entry{Rect: geom.Rect{Min: p.Add(dx, 0), Max: p.Add(dx+0.1, 0.1)}, Ref: int64(i)})
		}
		return n
	}
	na, nb := node(83, 0), node(84, 0.9)
	m := geom.L2()
	var rows []float64
	for i := range na.Entries {
		rows = append(rows, m.MinMinKey(na.Entries[i].Rect, nb.MBR()))
	}
	slices.Sort(rows)
	quarter := rows[6]
	for _, c := range []struct {
		name string
		nb   *rtree.Node
		self bool
		p    nodePair
		T    float64
	}{
		{"T=inf", nb, false, nodePair{a: 1, b: 2, la: 1, lb: 1}, math.Inf(1)},
		{"T=quarter", nb, false, nodePair{a: 1, b: 2, la: 1, lb: 1}, quarter},
		{"diagonal", na, true, nodePair{a: 1, b: 1, la: 1, lb: 1}, quarter},
	} {
		b.Run(c.name, func(b *testing.B) {
			j := &join{k: 100, opts: DefaultOptions(Heap), metric: m, mA: 10, mB: 10, self: c.self,
				useTie: true, rootAreaA: 1, rootAreaB: 1}
			var sc kernelScratch
			var dst []nodePair
			var e expansion
			expand := func() {
				e = j.beginExpand(&sc, c.p, na, c.nb, c.T)
				dst = e.finish(dst[:0], c.T)
			}
			expand()
			if allocs := testing.AllocsPerRun(100, expand); allocs != 0 {
				b.Fatalf("a warm expansion allocates %v, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				expand()
			}
			b.ReportMetric(float64(e.nA), "rows/op")
			b.ReportMetric(float64(e.nB), "cols/op")
			b.ReportMetric(float64(len(dst)), "subpairs/op")
		})
	}
}
