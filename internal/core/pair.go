package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Pair is one result of a closest-pair query: a point from each data set,
// their record ids, and their Euclidean distance.
type Pair struct {
	P, Q       geom.Point
	RefP, RefQ int64
	Dist       float64
}

// String implements fmt.Stringer.
func (p Pair) String() string {
	return fmt.Sprintf("(%v #%d, %v #%d) dist=%g", p.P, p.RefP, p.Q, p.RefQ, p.Dist)
}

// nodePair is a candidate pair of subtrees during traversal: one node (or
// the root) from each tree, with the metrics driving pruning and ordering.
// Node pairs may sit at different levels while the two trees have
// different heights.
//
// It is the element of the HEAP queue, which holds hundreds of thousands
// of them, so it carries only what cannot be read back: 40 bytes. The two
// MBRs are not among them. Whoever processes the pair reads both nodes
// anyway, and a node's MBR is exactly the rectangle its parent stores for
// it (rtree.CheckInvariants), so the one use of a queued rectangle — the
// fixed side of a different-height expansion — takes Node.MBR() instead.
type nodePair struct {
	a, b     storage.PageID
	minminSq float64
	tieKey   float64 // lower is "process first"; 0 when ties are disabled
	la, lb   int32   // levels (0 = leaf)
}

// less orders node pairs for the STD sort and the HEAP priority queue:
// ascending MINMINDIST, with exact ties broken by the tie strategy's key.
// The pointer receiver matters on the hot path: the sift loops compare far
// more often than they swap, so the fast path is two float64 loads and one
// comparison with no struct copying (the tie key is consulted only on
// exact MINMINDIST equality, which is rare with float64 distance keys).
func (p *nodePair) less(q *nodePair) bool {
	if p.minminSq < q.minminSq {
		return true
	}
	if p.minminSq > q.minminSq {
		return false
	}
	return p.tieKey < q.tieKey
}

// tieKeyFor computes the tie-break key of a candidate pair. Lower keys are
// processed first, so "largest X wins" strategies negate X. rootAreaA and
// rootAreaB normalize T1's areas as the paper prescribes (percent of the
// relevant root's area).
//
// T1 takes the builtin max, which parts from math.Max only where a NaN
// meets an infinity. A ratio here is NaN when an area overflows to +Inf,
// since its root's area, which is no smaller, is +Inf too; and it is never
// +Inf, because a node's area is at most its root's, so a ratio with a
// finite denominator is at most 1.
func tieKeyFor(strategy TieStrategy, m geom.Metric, ra, rb geom.Rect, rootAreaA, rootAreaB float64) float64 {
	switch strategy {
	case TieNone:
		return 0
	case Tie1:
		relA, relB := 0.0, 0.0
		if rootAreaA > 0 {
			relA = ra.Area() / rootAreaA
		}
		if rootAreaB > 0 {
			relB = rb.Area() / rootAreaB
		}
		return -max(relA, relB)
	case Tie2:
		return m.MinMaxKey(ra, rb)
	case Tie3:
		return -(ra.Area() + rb.Area())
	case Tie4:
		return ra.Union(rb).Area() - ra.Area() - rb.Area()
	case Tie5:
		return -ra.OverlapArea(rb)
	default:
		return 0
	}
}
