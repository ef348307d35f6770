package core

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

// TestKernelCounterParity pins that the expansion kernel leaves the paper's
// cost counters exactly where the textbook per-pair expansion puts them: it
// changes how MBR pairs are compared, never which nodes are read. A kernel
// join and a reference join (refExpandInto below) walk their own copy of
// the trees in lockstep; every expansion must yield the same sub-pairs and
// the same auxiliary bound, and the walks must end on the same four
// counters.
func TestKernelCounterParity(t *testing.T) {
	ps := dataset.Uniform(41, 1200)
	qs := dataset.Uniform(42, 1100)
	ta, tb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	ra, rb := buildTree(t, ps, 256), buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 100} {
			opts := DefaultOptions(alg)
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

// TestKernelScratchZeroAlloc pins the steady-state allocation discipline
// of the batched expansion kernel's SoA scratch: warm fills and key-buffer
// growth reuse capacity.
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
