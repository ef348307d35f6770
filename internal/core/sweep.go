package core

import "repro/internal/rtree"

// This file implements the leaf scan, step CP3: the brute all-pairs loop of
// the paper replaced by the band technique of the planar closest-pair
// literature. Both leaves' entries are in ascending low x order — the order
// the R-tree writer stores a leaf page in (rtree.LeafOrdered), verified
// here in one pass and re-established on the query's own decoded copy when
// a page does not have it — and merge-walked: the entry with the smaller
// low x becomes the anchor and scans forward through the other leaf's
// entries, stopping at the first entry whose x gap alone puts the pair
// beyond the pruning bound T. The gap to later entries is at least
// as large (the lists are sorted by low x and the anchor's low x is the
// smallest still unconsumed), so the break is safe, and every pair within T
// is evaluated exactly once — when the first-consumed of its two entries is
// the anchor. A self join's diagonal leaf (na == nb, see readPair) is one
// list walked over its upper triangle (scanLeafSelf): each entry anchors
// the entries after it, under the same break. T = min(extBound, K-heap threshold) only
// ever tightens, so the sweep evaluates a subset of the brute scan's pairs
// yet the K-heap ends up with the same result set.

// scanLeavesSweep evaluates the point pairs between two leaves against the
// given K-heap. extBound is a pruning distance (squared) from outside the
// heap — the auxiliary bound, or a range join's ε; pairs farther than
// min(extBound, K-heap threshold) cannot enter the final result, so only
// pairs whose x distance is within that at the time the pair is reached
// are evaluated, and exactly those are counted in Stats.PointPairsCompared.
// The two leaves must be the caller's own decoded copies (a frame's): a
// leaf that did not come off its page x-ordered is ordered in place, by
// the writer's own rule, so the scan evaluates the same pairs whichever
// side did the ordering. A self join's diagonal leaf goes to
// scanLeafSelf.
func (j *join) scanLeavesSweep(na, nb *rtree.Node, kh *kHeap, extBound float64) {
	if na == nb {
		j.scanLeafSelf(na, kh, extBound)
		return
	}
	rtree.OrderLeaf(na.Entries)
	rtree.OrderLeaf(nb.Entries)
	as, bs := na.Entries, nb.Entries

	// T is re-derived from the heap whenever a pair is accepted: the sweep
	// itself tightens the threshold it prunes with.
	T := extBound
	if th := kh.threshold(); th < T {
		T = th
	}
	var compared int64
	i, t := 0, 0
	for i < len(as) && t < len(bs) {
		// The side with the smaller low x is the anchor; it scans forward
		// through the other side's unconsumed entries.
		anchorIsA := as[i].Rect.Min.X <= bs[t].Rect.Min.X
		var anchor *rtree.Entry
		var others []rtree.Entry
		if anchorIsA {
			anchor, others = &as[i], bs[t:]
			i++
		} else {
			anchor, others = &bs[t], as[i:]
			t++
		}
		for u := range others {
			other := &others[u]
			// Entries ahead of the anchor are sorted by low x, so the gap
			// beyond the anchor's MBR grows monotonically: the first
			// violation ends the band.
			if gap := other.Rect.Min.X - anchor.Rect.Max.X; gap > 0 && j.metric.DistToKey(gap) > T {
				break
			}
			compared++
			d := j.metric.MinMinKey(anchor.Rect, other.Rect) // symmetric
			if !kh.wouldAccept(d) {
				continue
			}
			ea, eb := anchor, other
			if !anchorIsA {
				ea, eb = other, anchor
			}
			if th := j.offerLeafPair(kh, d, ea, eb); th < T {
				T = th
			}
		}
	}
	j.stats.pointPairsCompared.Add(compared)
	j.traceSweepPruned(int64(len(na.Entries)*len(nb.Entries)) - compared)
}

// scanLeafSelf is scanLeavesSweep for a self join's diagonal leaf (na ==
// nb, see readPair): the one x-ordered list walked over its upper
// triangle, each entry anchoring the entries after it under the same gap
// break, so each unordered pair of distinct entries is evaluated at most
// once.
func (j *join) scanLeafSelf(n *rtree.Node, kh *kHeap, extBound float64) {
	rtree.OrderLeaf(n.Entries)
	es := n.Entries
	T := extBound
	if th := kh.threshold(); th < T {
		T = th
	}
	var compared int64
	for i := range es {
		anchor := &es[i]
		for u := i + 1; u < len(es); u++ {
			other := &es[u]
			if gap := other.Rect.Min.X - anchor.Rect.Max.X; gap > 0 && j.metric.DistToKey(gap) > T {
				break
			}
			compared++
			d := j.metric.MinMinKey(anchor.Rect, other.Rect)
			if !kh.wouldAccept(d) {
				continue
			}
			if th := j.offerLeafPair(kh, d, anchor, other); th < T {
				T = th
			}
		}
	}
	j.stats.pointPairsCompared.Add(compared)
	j.traceSweepPruned(int64(len(es)*(len(es)-1)/2) - compared)
}

// offerLeafPair offers the point pair (ea, eb) at squared distance d to
// the K-heap — a self join's with refP < refQ — and returns the heap's
// threshold after it.
func (j *join) offerLeafPair(kh *kHeap, d float64, ea, eb *rtree.Entry) float64 {
	if j.self && ea.Ref > eb.Ref {
		ea, eb = eb, ea
	}
	kh.offer(kPair{
		distSq: d,
		p:      [2]float64{ea.Rect.Min.X, ea.Rect.Min.Y},
		q:      [2]float64{eb.Rect.Min.X, eb.Rect.Min.Y},
		refP:   ea.Ref,
		refQ:   eb.Ref,
	})
	return kh.threshold()
}
