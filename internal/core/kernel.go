package core

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// This file implements the expansion kernel. Expanding a node pair is the
// hot path of every pruning algorithm once the leaf scan is cheap: for an
// expandBoth pair the textbook way (the reference in kernel_test.go)
// computes all n*m MINMINDIST values through per-pair rect method calls,
// after materialising every candidate nodePair (~11 words each) whether it
// survives pruning or not.
//
// The kernel reverses that order. beginExpand copies the child MBRs into
// flat structure-of-arrays scratch (xlo/xhi/ylo/yhi per side), drops the
// children that cannot reach the caller's cut, and computes the pairwise
// MINMINDIST keys of the rest in one tight branch-light loop the compiler
// keeps in registers; finish then materialises only the sub-pairs whose
// key survives the pruning bound. The two-phase shape exists because the
// callers differ between the phases: expandInto may tighten T in between,
// the range join filters by its fixed ε.
//
// The cut restricts the search space the way Brinkhoff, Kriegel & Seeger's
// R-tree join does: an A child whose key to nb's MBR exceeds the cut is
// farther than the cut from every B child, so its whole row of sub-pairs
// would be pruned, and likewise a B child's column against na's MBR
// (restrict). The gap to the MBR is at most the gap to any child inside
// it, axis by axis, and the key only grows with the gaps — the same
// monotonicity that lets a pair's children never key below the pair — so
// a dropped row or column holds no key at or below the cut. Only the
// surviving rows × columns are keyed, bound and emitted, in the nodes' own
// order, and SubPairsPruned counts every generated sub-pair not emitted.
// Everything observable — the sub-pairs and their order, the bound
// candidate, SubPairsGenerated/SubPairsPruned, the bound steps — is what
// the unrestricted textbook expansion gives (TestKernelCounterParity,
// TestKernelRestrictionExact):
//
//   - The per-axis gaps are computed by the same subtraction expressions as
//     geom.Metric.MinMinKey (only one of the two directed gaps can be
//     positive), so the keys are bit-identical.
//   - The bound candidate matters only when it is below the cut, and then
//     equals the reference's (all sub-pairs, full sort): the MINMAXDIST and
//     MAXMAXDIST a candidate reads off are each at least the sub-pair's
//     MINMINDIST, so no dropped sub-pair has one below the cut. The kernel
//     also skips the evaluations that provably cannot matter and sorts only
//     the values below the cut, none at all when the order statistic is the
//     minimum (boundCandidate).
//   - Filtering uses the post-tighten T, which is at most the cut.
//   - expandInto cuts at its T before the expansion and applies a candidate
//     only below that T, the paper's T := min(T, bound). A candidate the
//     K-heap's threshold already undercuts never becomes T, so the T
//     sequence, and every recorded bound step with it, is the one the
//     textbook rule gives (DESIGN.md §10).
//
// The scratch is the caller's (a field of its queryScratch) and every slice
// is grown in place, so a warm expansion allocates nothing.

// kernelScratch carries one expansion's flat MBR copies and derived keys.
// Row i of the a side is child ai[i] of its node, column t of the b side
// child bi[t]: the identity until restrict drops children.
type kernelScratch struct {
	axlo, axhi, aylo, ayhi []float64
	bxlo, bxhi, bylo, byhi []float64
	ai, bi                 []int
	keys                   []float64 // MINMINDIST keys, i-major (a outer, b inner)
	maxmax                 []float64 // MAXMAXDIST keys scratch for the K > 1 bound
}

// grow resizes a scratch slice to n elements, reusing capacity.
func grow[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// fillSide copies entries' MBRs into one side's SoA slices, numbers them
// in order in idx, and returns the node's MBR, folded in the same pass:
// the least and greatest coordinates of its entries, whatever their shape.
func fillSide(entries []rtree.Entry, xlo, xhi, ylo, yhi *[]float64, idx *[]int) geom.Rect {
	n := len(entries)
	*xlo, *xhi = grow(*xlo, n), grow(*xhi, n)
	*ylo, *yhi = grow(*ylo, n), grow(*yhi, n)
	*idx = grow(*idx, n)
	lx, hx, ly, hy, ix := *xlo, *xhi, *ylo, *yhi, *idx
	mbr := geom.EmptyRect()
	for i := range entries {
		r := &entries[i].Rect
		lx[i], hx[i], ly[i], hy[i], ix[i] = r.Min.X, r.Max.X, r.Min.Y, r.Max.Y, i
		mbr.Min.X, mbr.Max.X = min(mbr.Min.X, r.Min.X), max(mbr.Max.X, r.Max.X)
		mbr.Min.Y, mbr.Max.Y = min(mbr.Min.Y, r.Min.Y), max(mbr.Max.Y, r.Max.Y)
	}
	return mbr
}

// fillA fills the a side with a node's children and returns its MBR.
func (sc *kernelScratch) fillA(entries []rtree.Entry) geom.Rect {
	return fillSide(entries, &sc.axlo, &sc.axhi, &sc.aylo, &sc.ayhi, &sc.ai)
}

// fillB fills the b side with a node's children and returns its MBR.
func (sc *kernelScratch) fillB(entries []rtree.Entry) geom.Rect {
	return fillSide(entries, &sc.bxlo, &sc.bxhi, &sc.bylo, &sc.byhi, &sc.bi)
}

func (sc *kernelScratch) fillARect(r geom.Rect) {
	sc.axlo, sc.axhi = grow(sc.axlo, 1), grow(sc.axhi, 1)
	sc.aylo, sc.ayhi = grow(sc.aylo, 1), grow(sc.ayhi, 1)
	sc.axlo[0], sc.axhi[0] = r.Min.X, r.Max.X
	sc.aylo[0], sc.ayhi[0] = r.Min.Y, r.Max.Y
}

func (sc *kernelScratch) fillBRect(r geom.Rect) {
	sc.bxlo, sc.bxhi = grow(sc.bxlo, 1), grow(sc.bxhi, 1)
	sc.bylo, sc.byhi = grow(sc.bylo, 1), grow(sc.byhi, 1)
	sc.bxlo[0], sc.bxhi[0] = r.Min.X, r.Max.X
	sc.bylo[0], sc.byhi[0] = r.Min.Y, r.Max.Y
}

// keepWithin compacts one side's SoA slices and index map to the entries
// whose MINMINDIST key to other is at most cut, in order, and returns how
// many those are. The gaps are MinMinKey's: at most one of the two
// directed gaps is positive.
func keepWithin(m geom.Metric, other geom.Rect, cut float64, xlo, xhi, ylo, yhi []float64, idx []int) int {
	euclid := m.IsEuclidean()
	kept := 0
	for i := range idx {
		dx := max(other.Min.X-xhi[i], xlo[i]-other.Max.X, 0)
		dy := max(other.Min.Y-yhi[i], ylo[i]-other.Max.Y, 0)
		var key float64
		if euclid {
			key = dx*dx + dy*dy
		} else {
			key = m.Combine(dx, dy)
		}
		if key <= cut {
			xlo[kept], xhi[kept], ylo[kept], yhi[kept], idx[kept] = xlo[i], xhi[i], ylo[i], yhi[i], idx[i]
			kept++
		}
	}
	return kept
}

// restrict drops the rows whose key to nb's MBR rb, and the columns whose
// key to na's MBR ra, exceeds cut: the restriction of the search space
// (file comment). The survivors keep their order.
func (e *expansion) restrict(ra, rb geom.Rect, cut float64) {
	sc, m := e.sc, e.j.metric
	e.nA = keepWithin(m, rb, cut, sc.axlo, sc.axhi, sc.aylo, sc.ayhi, sc.ai)
	e.nB = keepWithin(m, ra, cut, sc.bxlo, sc.bxhi, sc.bylo, sc.byhi, sc.bi)
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
	// nA, nB are the scratch's rows and columns (1 for a side that is not
	// opened), n = nA * nB the keys computed.
	nA, nB int
	n      int
	// diag marks a self join's diagonal pair (join.diagonal): na == nb, and
	// the candidates are the subs = nA(nA+1)/2 sub-pairs of the i <= t
	// triangle, each unordered child pair once. Otherwise subs is the
	// number of sub-pairs generated before restrict, nA * nB at the time.
	diag    bool
	subs    int
	hasKeys bool
	// bound is the auxiliary pruning bound the sub-pair MBR metrics
	// support if that is below the cut, +Inf otherwise (boundCandidate).
	// The caller applies it (expandInto assigns j.bound).
	bound float64
}

// beginExpand starts a batched expansion of a node pair: it fills the SoA
// scratch sc, restricts it to the children that can reach cut, computes
// the pairwise MINMINDIST keys (for the pruning algorithms) and the
// auxiliary bound candidate (for the tightening ones), and counts the
// generated sub-pairs. The caller then calls finish with a T at most cut
// to materialise the survivors; sc, na and nb must stay untouched in
// between. cut is also the bound the caller compares the candidate with —
// expandInto's T — and lets the kernel skip every candidate that could
// not be applied anyway; a caller that does not prune passes +Inf. An
// expandBoth expansion off the diagonal is restricted when cut is finite;
// the one-sided ones have a single row or column, which is already each
// sub-pair's own key, and a diagonal's children all lie inside the one
// node's MBR.
func (j *join) beginExpand(sc *kernelScratch, p nodePair, na, nb *rtree.Node, cut float64) expansion {
	e := expansion{
		j: j, sc: sc,
		p: p, na: na, nb: nb,
		mode:  j.modeFor(na, nb),
		diag:  j.diagonal(p),
		bound: math.Inf(1),
	}
	var ra, rb geom.Rect // the MBRs of an expandBoth pair's nodes
	switch e.mode {
	case expandBoth:
		e.nA, e.nB = len(na.Entries), len(nb.Entries)
		ra, rb = sc.fillA(na.Entries), sc.fillB(nb.Entries)
	case expandAOnly:
		e.nA, e.nB = len(na.Entries), 1
		sc.fillA(na.Entries)
		sc.fillBRect(nb.MBR())
	case expandBOnly:
		e.nA, e.nB = 1, len(nb.Entries)
		sc.fillARect(na.MBR())
		sc.fillB(nb.Entries)
	}
	e.subs = e.nA * e.nB
	switch {
	case e.diag:
		e.subs = e.nA * (e.nA + 1) / 2
	case e.mode == expandBoth && cut < math.Inf(1):
		e.restrict(ra, rb, cut)
	}
	e.n = e.nA * e.nB
	j.stats.subPairsGenerated += int64(e.subs)
	if j.prunes() {
		e.computeKeys()
		e.hasKeys = true
	}
	if j.tightens() {
		e.bound = e.boundCandidate(cut)
	}
	return e
}

// computeKeys evaluates all pairwise MINMINDIST keys into sc.keys, i-major.
// The per-axis gap expressions match geom.Metric.MinMinKey exactly (at most
// one of the two directed gaps is positive; overlapping axes clamp to 0),
// so the keys are bit-identical to per-pair MinMinKey calls.
func (e *expansion) computeKeys() {
	sc := e.sc
	sc.keys = grow(sc.keys, e.n)
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

// first is the first candidate column of row i: i on the diagonal, whose
// triangle skips the mirrored t < i half, 0 otherwise.
func (e *expansion) first(i int) int {
	if e.diag {
		return i
	}
	return 0
}

// rectA returns the MBR of scratch row i: a child's, or the node's own
// when the a side is not opened.
func (e *expansion) rectA(i int) geom.Rect {
	sc := e.sc
	return geom.Rect{Min: geom.Point{X: sc.axlo[i], Y: sc.aylo[i]}, Max: geom.Point{X: sc.axhi[i], Y: sc.ayhi[i]}}
}

// rectB returns the MBR of scratch column t.
func (e *expansion) rectB(t int) geom.Rect {
	sc := e.sc
	return geom.Rect{Min: geom.Point{X: sc.bxlo[t], Y: sc.bylo[t]}, Max: geom.Point{X: sc.bxhi[t], Y: sc.byhi[t]}}
}

// boundCandidate computes the auxiliary pruning bound the sub-pair MBR
// metrics support, provided it is below cur, the bound the caller is about
// to compare it with; +Inf otherwise (nothing applies, or what applies
// cannot lower cur). K = 1: the minimum MINMAXDIST over all sub-pairs
// (Inequality 2: MINMAXDIST holds for at least one point pair), less a
// diagonal's i == t sub-pairs, where that pair could be a point against
// itself. K > 1 under KPruneMaxMax: the MAXMAXDIST prefix bound. It never
// mutates join state.
//
// Both rules read off an order statistic of a metric that is at least the
// sub-pair's MINMINDIST, and only a value below cur is ever applied. So the
// metric is evaluated only where the MINMINDIST key already computed is
// below cur, and only values below cur are kept: the r-th smallest of all
// values is below cur exactly when r of them are, and is then the r-th
// smallest of those. cur is the cut, so the sub-pairs restrict dropped,
// whose keys all exceed it, hold none of those values. What the caller
// applies is what the textbook all-pairs, full-sort rule (kernel_test.go)
// would have applied.
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
	//
	// A diagonal's triangle counts unordered pairs of distinct points: an
	// i == t sub-pair guarantees c(c-1)/2 of them for c = m^(l+1) points
	// per child, an i < t one c² and its mirror none, being never
	// generated. Taking the smaller c(c-1)/2 for every sub-pair undercounts,
	// which keeps the bound sound and the count uniform.
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
	if e.diag {
		c = cntA * (cntA - 1) / 2
	}
	// r by repeated addition, not division: the accumulated count is the
	// one the prefix rule is defined on, rounding included.
	r := 0
	var cum float64
	for i := 1; i <= e.subs; i++ {
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
	e.sc.maxmax = grow(e.sc.maxmax, e.n)
	mx := e.sc.maxmax
	keys := e.sc.keys[:e.n]
	kept := 0
	for i := 0; i < e.nA; i++ {
		t0 := e.first(i)
		for t, idx := t0, i*e.nB+t0; t < e.nB; t, idx = t+1, idx+1 {
			if keys[idx] < cur {
				if v := j.metric.MaxMaxKey(e.rectA(i), e.rectB(t)); v < cur {
					mx[kept] = v
					kept++
				}
			}
		}
	}
	if kept < r {
		return math.Inf(1)
	}
	slices.Sort(mx[:kept])
	return mx[r-1]
}

// minBelow returns the smallest MINMAXDIST (MAXMAXDIST with maxmax set) key
// over the sub-pairs if it is below cur, +Inf otherwise; MINMAXDIST skips
// a diagonal's i == t sub-pairs (boundCandidate). Either metric is
// at least the sub-pair's MINMINDIST, so a sub-pair whose MINMINDIST key
// already reaches the running minimum cannot lower it and is skipped — that
// leaves the result unchanged and avoids most of the evaluations (16 edge
// pairs each for MINMAXDIST).
func (e *expansion) minBelow(cur float64, maxmax bool) float64 {
	m := e.j.metric
	keys := e.sc.keys[:e.n]
	best := cur
	for i := 0; i < e.nA; i++ {
		t0 := e.first(i)
		if e.diag && !maxmax {
			t0++
		}
		for t, idx := t0, i*e.nB+t0; t < e.nB; t, idx = t+1, idx+1 {
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
		}
	}
	if best < cur {
		return best
	}
	return math.Inf(1)
}

// finish materialises the sub-pairs whose MINMINDIST key does not exceed T
// into dst (appending), i-major in the nodes' own order, and counts every
// other generated sub-pair as pruned: those above T and those restrict
// dropped. T must be at most the cut beginExpand was given. Tie keys are
// computed only for survivors — a pruned pair's key is never observable.
// The survivors are self-contained: once finish returns, neither the
// kernel scratch nor the two nodes are needed to process them. Callers
// that recurse into the result give each depth its own dst (its frame's).
// dst is first grown to hold every generated sub-pair, so a frame's list
// reaches its final capacity on its first full expansion whatever T
// prunes, and a parallel worker's T depends on the schedule.
func (e *expansion) finish(dst []nodePair, T float64) []nodePair {
	j := e.j
	dst = slices.Grow(dst, e.subs)
	start := len(dst)
	keys, ai, bi := e.sc.keys, e.sc.ai, e.sc.bi
	// A side that is not opened is p's own node on every sub-pair.
	openA, openB := e.mode != expandBOnly, e.mode != expandAOnly
	la, lb := e.p.la, e.p.lb
	if openA {
		la = int32(e.na.Level - 1)
	}
	if openB {
		lb = int32(e.nb.Level - 1)
	}
	for i := 0; i < e.nA; i++ {
		a := e.p.a
		if openA {
			a = e.na.Entries[ai[i]].Child()
		}
		t0 := e.first(i)
		for t, idx := t0, i*e.nB+t0; t < e.nB; t, idx = t+1, idx+1 {
			var key float64
			if e.hasKeys {
				key = keys[idx]
				if key > T {
					continue
				}
			}
			sp := nodePair{a: a, b: e.p.b, la: la, lb: lb, minminSq: key}
			if openB {
				sp.b = e.nb.Entries[bi[t]].Child()
			}
			if j.useTie {
				sp.tieKey = tieKeyFor(j.opts.Tie, j.metric, e.rectA(i), e.rectB(t),
					j.rootAreaA, j.rootAreaB)
			}
			dst = append(dst, sp)
		}
	}
	j.stats.subPairsPruned += int64(e.subs - (len(dst) - start))
	return dst
}
