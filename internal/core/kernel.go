package core

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file implements the expansion kernel. Expanding a node pair is the
// hot path of every pruning algorithm once the leaf scan is cheap: for an
// expandBoth pair it computes n*m MINMINDIST values, and the textbook way
// (the reference in kernel_test.go) does so through per-pair rect method
// calls after materialising every candidate nodePair (~11 words each)
// whether it survives pruning or not.
//
// The kernel reverses that order. beginExpand copies the child MBRs into
// flat structure-of-arrays scratch (xlo/xhi/ylo/yhi per side) and
// computes all pairwise MINMINDIST keys in one tight branch-light loop the
// compiler keeps in registers; finish then materialises only the sub-pairs
// whose key survives the pruning bound. The two-phase shape exists because
// the callers differ between the phases: expandInto assigns j.bound and
// filters by the tightened T, the range join filters by its fixed ε.
// Everything observable — the sub-pair set, the bound
// value, SubPairsGenerated/SubPairsPruned, trace events — is identical to
// the reference (TestKernelCounterParity):
//
//   - The per-axis gaps are computed by the same subtraction expressions as
//     geom.Metric.MinMinKey (only one of the two directed gaps can be
//     positive), so the keys are bit-identical.
//   - The bound candidate is taken before any filtering and equals the
//     reference's (all sub-pairs, full sort) whenever that is below the
//     caller's current bound, which is the only time either is applied; the
//     kernel skips the MINMAXDIST / MAXMAXDIST evaluations that provably
//     cannot matter (either is >= MINMINDIST) and sorts only the values
//     below the current bound, none at all when the order statistic is the
//     minimum (boundCandidate).
//   - Filtering uses the post-tighten T.
//
// The scratch is the caller's (a field of its queryScratch) and every slice
// is grown in place, so a warm expansion allocates nothing.

// kernelScratch carries one expansion's flat MBR copies and derived keys.
type kernelScratch struct {
	axlo, axhi, aylo, ayhi []float64
	bxlo, bxhi, bylo, byhi []float64
	keys                   []float64 // MINMINDIST keys, i-major (a outer, b inner)
	maxmax                 []float64 // MAXMAXDIST keys scratch for the K > 1 bound
}

// growF64 resizes a scratch slice to n elements, reusing capacity.
func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func (sc *kernelScratch) fillA(entries []rtree.Entry) {
	n := len(entries)
	sc.axlo, sc.axhi = growF64(sc.axlo, n), growF64(sc.axhi, n)
	sc.aylo, sc.ayhi = growF64(sc.aylo, n), growF64(sc.ayhi, n)
	for i := range entries {
		r := &entries[i].Rect
		sc.axlo[i], sc.axhi[i] = r.Min.X, r.Max.X
		sc.aylo[i], sc.ayhi[i] = r.Min.Y, r.Max.Y
	}
}

func (sc *kernelScratch) fillB(entries []rtree.Entry) {
	n := len(entries)
	sc.bxlo, sc.bxhi = growF64(sc.bxlo, n), growF64(sc.bxhi, n)
	sc.bylo, sc.byhi = growF64(sc.bylo, n), growF64(sc.byhi, n)
	for i := range entries {
		r := &entries[i].Rect
		sc.bxlo[i], sc.bxhi[i] = r.Min.X, r.Max.X
		sc.bylo[i], sc.byhi[i] = r.Min.Y, r.Max.Y
	}
}

func (sc *kernelScratch) fillARect(r geom.Rect) {
	sc.axlo, sc.axhi = growF64(sc.axlo, 1), growF64(sc.axhi, 1)
	sc.aylo, sc.ayhi = growF64(sc.aylo, 1), growF64(sc.ayhi, 1)
	sc.axlo[0], sc.axhi[0] = r.Min.X, r.Max.X
	sc.aylo[0], sc.ayhi[0] = r.Min.Y, r.Max.Y
}

func (sc *kernelScratch) fillBRect(r geom.Rect) {
	sc.bxlo, sc.bxhi = growF64(sc.bxlo, 1), growF64(sc.bxhi, 1)
	sc.bylo, sc.byhi = growF64(sc.bylo, 1), growF64(sc.byhi, 1)
	sc.bxlo[0], sc.bxhi[0] = r.Min.X, r.Max.X
	sc.bylo[0], sc.byhi[0] = r.Min.Y, r.Max.Y
}

// expansion is one in-flight batched expansion between beginExpand and
// finish. It holds the caller's scratch, the pair being expanded and the
// auxiliary bound candidate the generated MBR pairs support.
type expansion struct {
	j      *join
	sc     *kernelScratch
	p      nodePair
	na, nb *rtree.Node
	mode   expandMode
	// fixed is the MBR of the side that is not opened (expandAOnly: nb's,
	// expandBOnly: na's) — the node's own MBR, which equals the rectangle
	// its parent holds for it.
	fixed   geom.Rect
	nA, nB  int
	n       int // nA * nB candidate sub-pairs
	hasKeys bool
	// bound is the auxiliary pruning bound the sub-pair MBR metrics
	// support if that is below the caller's current bound, +Inf otherwise
	// (boundCandidate). The caller applies it (expandInto assigns j.bound).
	bound float64
}

// beginExpand starts a batched expansion of a node pair: it fills the SoA
// scratch sc, computes all pairwise MINMINDIST keys (for the pruning
// algorithms) and the auxiliary bound candidate (for the tightening ones),
// and counts the generated sub-pairs. The caller then calls finish to
// materialise the survivors; sc, na and nb must stay untouched in between.
// cur is the bound the caller will compare the candidate with — j.bound —
// and lets the kernel skip every candidate that could not be applied
// anyway.
func (j *join) beginExpand(sc *kernelScratch, p nodePair, na, nb *rtree.Node, cur float64) expansion {
	e := expansion{
		j: j, sc: sc,
		p: p, na: na, nb: nb,
		mode:  j.modeFor(na, nb),
		bound: math.Inf(1),
	}
	switch e.mode {
	case expandBoth:
		e.nA, e.nB = len(na.Entries), len(nb.Entries)
		e.sc.fillA(na.Entries)
		e.sc.fillB(nb.Entries)
	case expandAOnly:
		e.nA, e.nB = len(na.Entries), 1
		e.fixed = nb.MBR()
		e.sc.fillA(na.Entries)
		e.sc.fillBRect(e.fixed)
	case expandBOnly:
		e.nA, e.nB = 1, len(nb.Entries)
		e.fixed = na.MBR()
		e.sc.fillARect(e.fixed)
		e.sc.fillB(nb.Entries)
	}
	e.n = e.nA * e.nB
	j.stats.subPairsGenerated.Add(int64(e.n))
	if j.prunes() {
		e.computeKeys()
		e.hasKeys = true
	}
	if j.tightens() {
		e.bound = e.boundCandidate(cur)
	}
	return e
}

// computeKeys evaluates all pairwise MINMINDIST keys into sc.keys, i-major.
// The per-axis gap expressions match geom.Metric.MinMinKey exactly (at most
// one of the two directed gaps is positive; overlapping axes clamp to 0),
// so the keys are bit-identical to per-pair MinMinKey calls.
func (e *expansion) computeKeys() {
	sc := e.sc
	sc.keys = growF64(sc.keys, e.n)
	keys := sc.keys
	axlo, axhi := sc.axlo[:e.nA], sc.axhi[:e.nA]
	aylo, ayhi := sc.aylo[:e.nA], sc.ayhi[:e.nA]
	bxlo, bxhi := sc.bxlo[:e.nB], sc.bxhi[:e.nB]
	bylo, byhi := sc.bylo[:e.nB], sc.byhi[:e.nB]
	if e.j.metric.IsEuclidean() {
		idx := 0
		for i := 0; i < e.nA; i++ {
			alox, ahix := axlo[i], axhi[i]
			aloy, ahiy := aylo[i], ayhi[i]
			for t := 0; t < e.nB; t++ {
				dx := bxlo[t] - ahix
				if d := alox - bxhi[t]; d > dx {
					dx = d
				}
				if dx < 0 {
					dx = 0
				}
				dy := bylo[t] - ahiy
				if d := aloy - byhi[t]; d > dy {
					dy = d
				}
				if dy < 0 {
					dy = 0
				}
				keys[idx] = dx*dx + dy*dy
				idx++
			}
		}
		return
	}
	m := e.j.metric
	idx := 0
	for i := 0; i < e.nA; i++ {
		alox, ahix := axlo[i], axhi[i]
		aloy, ahiy := aylo[i], ayhi[i]
		for t := 0; t < e.nB; t++ {
			dx := bxlo[t] - ahix
			if d := alox - bxhi[t]; d > dx {
				dx = d
			}
			if dx < 0 {
				dx = 0
			}
			dy := bylo[t] - ahiy
			if d := aloy - byhi[t]; d > dy {
				dy = d
			}
			if dy < 0 {
				dy = 0
			}
			keys[idx] = m.Combine(dx, dy)
			idx++
		}
	}
}

// rectA returns the a-side MBR of sub-pair column i (the fixed node's own
// MBR when the a side is not opened).
func (e *expansion) rectA(i int) geom.Rect {
	if e.mode == expandBOnly {
		return e.fixed
	}
	return e.na.Entries[i].Rect
}

// rectB returns the b-side MBR of sub-pair row t.
func (e *expansion) rectB(t int) geom.Rect {
	if e.mode == expandAOnly {
		return e.fixed
	}
	return e.nb.Entries[t].Rect
}

// boundCandidate computes the auxiliary pruning bound the sub-pair MBR
// metrics support, provided it is below cur, the bound the caller is about
// to compare it with; +Inf otherwise (nothing applies, or what applies
// cannot lower cur). K = 1: the minimum MINMAXDIST over all sub-pairs
// (Inequality 2: MINMAXDIST holds for at least one point pair). K > 1
// under KPruneMaxMax: the MAXMAXDIST prefix bound. It never mutates join
// state.
//
// Both rules read off an order statistic of a metric that is at least the
// sub-pair's MINMINDIST, and only a value below cur is ever applied. So the
// metric is evaluated only where the MINMINDIST key already computed is
// below cur, and only values below cur are kept: the r-th smallest of all
// values is below cur exactly when r of them are, and is then the r-th
// smallest of those. What the caller applies is what the textbook
// all-pairs, full-sort rule (kernel_test.go) would have applied.
func (e *expansion) boundCandidate(cur float64) float64 {
	j := e.j
	if e.n == 0 {
		return math.Inf(1)
	}
	if j.k == 1 {
		return e.minBelow(cur, false)
	}
	if j.opts.KPrune != KPruneMaxMax {
		return math.Inf(1)
	}
	// K > 1: every point pair under a sub-pair has distance at most its
	// MAXMAXDIST (Inequality 1, right side). Sub-pairs cover disjoint
	// point-pair sets, so the prefix of sub-pairs, by ascending MAXMAXDIST,
	// whose guaranteed pair count reaches K bounds the K-th closest
	// distance by the prefix's largest MAXMAXDIST. The guaranteed count c
	// is uniform across one expansion's sub-pairs (all expanded children
	// sit at the same level, and a fixed side contributes one shared node),
	// so the prefix is the first r = ceil(K/c) sub-pairs and the bound is
	// the r-th smallest MAXMAXDIST: the minimum when r = 1, otherwise read
	// off a sort of the few values below cur.
	var cntA, cntB float64
	switch e.mode {
	case expandBoth:
		cntA = j.guaranteedPoints(j.mA, e.na.Level-1)
		cntB = j.guaranteedPoints(j.mB, e.nb.Level-1)
	case expandAOnly:
		cntA = j.guaranteedPoints(j.mA, e.na.Level-1)
		cntB = nodeGuaranteedPoints(j.mB, e.nb)
	case expandBOnly:
		cntA = nodeGuaranteedPoints(j.mA, e.na)
		cntB = j.guaranteedPoints(j.mB, e.nb.Level-1)
	}
	c := cntA * cntB
	// r by repeated addition, not division: the accumulated count is the
	// one the prefix rule is defined on, rounding included.
	r := 0
	var cum float64
	for i := 1; i <= e.n; i++ {
		cum += c
		if cum >= float64(j.k) {
			r = i
			break
		}
	}
	switch r {
	case 0: // all sub-pairs together guarantee fewer than K pairs
		return math.Inf(1)
	case 1:
		return e.minBelow(cur, true)
	}
	e.sc.maxmax = growF64(e.sc.maxmax, e.n)
	mx := e.sc.maxmax
	keys := e.sc.keys[:e.n]
	kept, idx := 0, 0
	for i := 0; i < e.nA; i++ {
		for t := 0; t < e.nB; t++ {
			if keys[idx] < cur {
				if v := j.metric.MaxMaxKey(e.rectA(i), e.rectB(t)); v < cur {
					mx[kept] = v
					kept++
				}
			}
			idx++
		}
	}
	if kept < r {
		return math.Inf(1)
	}
	slices.Sort(mx[:kept])
	return mx[r-1]
}

// minBelow returns the smallest MINMAXDIST (MAXMAXDIST with maxmax set) key
// over the sub-pairs if it is below cur, +Inf otherwise. Either metric is
// at least the sub-pair's MINMINDIST, so a sub-pair whose MINMINDIST key
// already reaches the running minimum cannot lower it and is skipped — that
// leaves the result unchanged and avoids most of the evaluations (16 edge
// pairs each for MINMAXDIST).
func (e *expansion) minBelow(cur float64, maxmax bool) float64 {
	m := e.j.metric
	keys := e.sc.keys[:e.n]
	best := cur
	idx := 0
	for i := 0; i < e.nA; i++ {
		for t := 0; t < e.nB; t++ {
			if keys[idx] < best {
				var v float64
				if maxmax {
					v = m.MaxMaxKey(e.rectA(i), e.rectB(t))
				} else {
					v = m.MinMaxKey(e.rectA(i), e.rectB(t))
				}
				if v < best {
					best = v
				}
			}
			idx++
		}
	}
	if best < cur {
		return best
	}
	return math.Inf(1)
}

// finish materialises the sub-pairs whose MINMINDIST key does not exceed T
// into dst (appending) and counts the pruned remainder. Tie keys are
// computed only for survivors — a pruned pair's key is never observable.
// The survivors are self-contained: once finish returns, neither the
// kernel scratch nor the two nodes are needed to process them. Callers
// that recurse into the result give each depth its own dst (its frame's).
func (e *expansion) finish(dst []nodePair, T float64) []nodePair {
	j := e.j
	keys := e.sc.keys
	var pruned int64
	idx := 0
	for i := 0; i < e.nA; i++ {
		for t := 0; t < e.nB; t++ {
			var key float64
			if e.hasKeys {
				key = keys[idx]
				if key > T {
					pruned++
					idx++
					continue
				}
			}
			sp := nodePair{minminSq: key}
			switch e.mode {
			case expandBoth:
				sp.a, sp.b = e.na.Entries[i].Child(), e.nb.Entries[t].Child()
				sp.la, sp.lb = int32(e.na.Level-1), int32(e.nb.Level-1)
			case expandAOnly:
				sp.a, sp.b = e.na.Entries[i].Child(), e.p.b
				sp.la, sp.lb = int32(e.na.Level-1), e.p.lb
			case expandBOnly:
				sp.a, sp.b = e.p.a, e.nb.Entries[t].Child()
				sp.la, sp.lb = e.p.la, int32(e.nb.Level-1)
			}
			if j.useTie {
				sp.tieKey = tieKeyFor(j.opts.Tie, j.metric, e.rectA(i), e.rectB(t),
					j.rootAreaA, j.rootAreaB)
			}
			dst = append(dst, sp)
			idx++
		}
	}
	if pruned > 0 {
		j.stats.subPairsPruned.Add(pruned)
	}
	return dst
}
