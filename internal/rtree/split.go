package rtree

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
)

// splitNode performs the R* split of an overfull node (M+1 entries): choose
// the split axis by minimum margin sum over all candidate distributions,
// then the distribution on that axis with minimum overlap between the two
// groups (ties: minimum total area). The first group stays in n; the second
// moves to a freshly allocated sibling at the same level. Both nodes are
// written before returning.
func (t *Tree) splitNode(n *Node) (*Node, error) {
	g1, g2 := chooseSplit(n.Entries, t.cfg.MinEntries)
	sibling, err := t.allocNode(n.Level)
	if err != nil {
		return nil, err
	}
	n.Entries = append(n.Entries[:0], g1...) // keeps n's entry array for reuse
	sibling.Entries = g2
	if err := t.writeNode(n); err != nil {
		return nil, err
	}
	if err := t.writeNode(sibling); err != nil {
		return nil, err
	}
	return sibling, nil
}

// chooseSplit partitions entries (len M+1) into two groups of at least m
// entries each, following the R* axis/distribution selection. The groups
// are two halves of one new slice; neither aliases entries.
func chooseSplit(entries []Entry, m int) (g1, g2 []Entry) {
	sorted := bestSplitAxisSort(entries, m)
	k := bestDistribution(sorted, m)
	split := m - 1 + k // entries [0:split) vs [split:), both groups >= m
	return sorted[:split], sorted[split:]
}

// axisSorts returns the candidate sorted orders for one axis: by lower
// value then by upper value.
func axisSorts(entries []Entry, axis int) [2][]Entry {
	byMin := append([]Entry(nil), entries...)
	byMax := append([]Entry(nil), entries...)
	lo := func(e Entry) float64 {
		if axis == 0 {
			return e.Rect.Min.X
		}
		return e.Rect.Min.Y
	}
	hi := func(e Entry) float64 {
		if axis == 0 {
			return e.Rect.Max.X
		}
		return e.Rect.Max.Y
	}
	// A stable sort's result is fixed by the order alone, so any stable
	// sort gives the same permutation (coordinates are finite: no NaN).
	slices.SortStableFunc(byMin, func(a, b Entry) int {
		if c := cmp.Compare(lo(a), lo(b)); c != 0 {
			return c
		}
		return cmp.Compare(hi(a), hi(b))
	})
	slices.SortStableFunc(byMax, func(a, b Entry) int {
		if c := cmp.Compare(hi(a), hi(b)); c != 0 {
			return c
		}
		return cmp.Compare(lo(a), lo(b))
	})
	return [2][]Entry{byMin, byMax}
}

// marginSum computes the R* "goodness" value S for one sorted order: the
// sum of the two groups' margins over every legal distribution.
func marginSum(sorted []Entry, m int) float64 {
	maxK := len(sorted) - 2*m + 1 // k = 1..maxK
	if maxK < 1 {
		return math.Inf(1)
	}
	// Prefix and suffix MBRs allow O(n) evaluation of all distributions.
	prefix := prefixMBRs(sorted)
	suffix := suffixMBRs(sorted)
	var s float64
	for k := 1; k <= maxK; k++ {
		split := m - 1 + k
		s += prefix[split-1].Margin() + suffix[split].Margin()
	}
	return s
}

// bestSplitAxisSort evaluates both sort orders on both axes and returns the
// sorted order belonging to the axis with the minimum margin sum. Within
// the winning axis the order with smaller margin sum is kept, so
// bestDistribution only needs to scan a single order. The first axis
// always seeds the choice: at coordinates near the float64 limit every
// margin sum overflows to +Inf and no axis would win on "<".
func bestSplitAxisSort(entries []Entry, m int) []Entry {
	best := []Entry(nil)
	bestS := math.Inf(1)
	bestAxisSum := math.Inf(1)
	for axis := 0; axis < 2; axis++ {
		sorts := axisSorts(entries, axis)
		s0 := marginSum(sorts[0], m)
		s1 := marginSum(sorts[1], m)
		axisSum := s0 + s1
		if best == nil || axisSum < bestAxisSum {
			bestAxisSum = axisSum
			if s0 <= s1 {
				best, bestS = sorts[0], s0
			} else {
				best, bestS = sorts[1], s1
			}
		} else if axisSum == bestAxisSum {
			// Tie between axes: keep the individual order with smaller S.
			if s0 < bestS {
				best, bestS = sorts[0], s0
			}
			if s1 < bestS {
				best, bestS = sorts[1], s1
			}
		}
	}
	return best
}

// bestDistribution returns the k (1-based distribution index) minimizing
// group overlap, with ties broken by total area, for the given sorted
// order. The split point is at index m-1+k.
func bestDistribution(sorted []Entry, m int) int {
	prefix := prefixMBRs(sorted)
	suffix := suffixMBRs(sorted)
	maxK := len(sorted) - 2*m + 1
	bestK := 1
	bestOverlap := math.Inf(1)
	bestArea := math.Inf(1)
	for k := 1; k <= maxK; k++ {
		split := m - 1 + k
		bb1 := prefix[split-1]
		bb2 := suffix[split]
		ov := bb1.OverlapArea(bb2)
		area := bb1.Area() + bb2.Area()
		if ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestK, bestOverlap, bestArea = k, ov, area
		}
	}
	return bestK
}

// prefixMBRs[i] is the MBR of sorted[0..i].
func prefixMBRs(sorted []Entry) []geom.Rect {
	out := make([]geom.Rect, len(sorted))
	acc := geom.EmptyRect()
	for i, e := range sorted {
		acc = acc.Union(e.Rect)
		out[i] = acc
	}
	return out
}

// suffixMBRs[i] is the MBR of sorted[i..].
func suffixMBRs(sorted []Entry) []geom.Rect {
	out := make([]geom.Rect, len(sorted))
	acc := geom.EmptyRect()
	for i := len(sorted) - 1; i >= 0; i-- {
		acc = acc.Union(sorted[i].Rect)
		out[i] = acc
	}
	return out
}
