package core

import (
	"math"

	"repro/internal/rtree"
)

// This file implements the grid-hash leaf scan (Options.LeafScanGrid), the
// uniform-grid technique of the optimized planar closest-pair literature
// applied to step CP3. One leaf's points are hashed into a uniform grid
// whose cell side tracks the current pruning distance δ = KeyToDist(T);
// each point of the other leaf then probes only the 3×3 neighborhood of
// its own cell. Any pair within δ differs by at most δ <= side on each
// axis, so its two points land in the same or adjacent cells (see
// gridSlack for why that survives floating-point bucketing) — the probe
// misses no qualifying pair, and every surfaced candidate is still
// evaluated exactly, so the K-heap ends up with the same result set as the
// brute and plane-sweep scans.
//
// When δ shrinks during the scan (the heap threshold tightened), the grid
// is NOT rebuilt immediately: oversized cells only surface extra
// candidates, never lose one. Only when δ drops below half the cell side
// (gridRebucketFactor) does the scan re-bucket with the smaller side — the
// hysteresis bounds rebuilds to O(log) per scan while keeping the probe
// neighborhoods dense.
//
// The grid needs a finite positive δ and point entries; otherwise it falls
// back to the plane sweep (no bound yet means no cell side, and MBR
// entries can exceed a cell). Cell coordinates are int32 and packed into
// one uint64 key for the open-addressed cell table; leaves whose
// coordinate magnitude exceeds 2^30 cells fall back as well, which also
// caps the rounding error in the adjacency argument.

const (
	// gridSlack inflates the cell side over δ. Two points within δ on an
	// axis then satisfy |ax - bx| <= side/1.001, and for cell indices
	// below 2^30 the floating-point division error when bucketing is under
	// ~5e-7 cells — far less than the 1e-3 margin — so the computed floor
	// cells provably differ by at most 1.
	gridSlack = 1.001
	// gridRebucketFactor is the δ-hysteresis: the grid is rebuilt only
	// once δ drops below this fraction of the current cell side.
	gridRebucketFactor = 0.5
	// gridMaxCoordCells caps |coordinate| / side so cell indices fit int32
	// with margin and the gridSlack adjacency argument holds.
	gridMaxCoordCells = float64(1 << 30)
)

// gridScratch is one leaf scan's grid state, a field of the caller's
// queryScratch: an open-addressed cell table (slotKey/slotHead,
// power-of-two sized, linear probing) over per-entry chain links (next).
// All slices grow in place, so a warm scan allocates nothing.
type gridScratch struct {
	slotKey  []uint64
	slotHead []int32
	next     []int32
	mask     uint64
	inv      float64 // 1 / side of the current bucketing
}

// growI32 resizes a scratch slice to n elements, reusing capacity.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growU64 resizes a scratch slice to n elements, reusing capacity.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// gridPack packs a cell coordinate pair into one injective uint64 key.
func gridPack(cx, cy int32) uint64 {
	return uint64(uint32(cx))<<32 | uint64(uint32(cy))
}

// gridHash mixes a packed cell key for the open-addressed table
// (Fibonacci multiplier, high bits folded down so masking keeps entropy).
func gridHash(k uint64) uint64 {
	k *= 0x9E3779B97F4A7C15
	return k ^ (k >> 32)
}

// build hashes the entries' points into the cell table with the given
// cell side. Entries must be points with in-range cell coordinates (the
// caller checks both before building).
func (g *gridScratch) build(entries []rtree.Entry, side float64) {
	n := len(entries)
	g.next = growI32(g.next, n)
	size := 64
	for size < 2*n {
		size <<= 1
	}
	g.slotKey = growU64(g.slotKey, size)
	g.slotHead = growI32(g.slotHead, size)
	for i := range g.slotHead {
		g.slotHead[i] = -1
	}
	g.mask = uint64(size - 1)
	g.inv = 1 / side
	for i := range entries {
		cx := int32(math.Floor(entries[i].Rect.Min.X * g.inv))
		cy := int32(math.Floor(entries[i].Rect.Min.Y * g.inv))
		k := gridPack(cx, cy)
		s := gridHash(k) & g.mask
		for {
			if g.slotHead[s] < 0 {
				g.slotKey[s] = k
				g.next[i] = -1
				g.slotHead[s] = int32(i)
				break
			}
			if g.slotKey[s] == k {
				g.next[i] = g.slotHead[s]
				g.slotHead[s] = int32(i)
				break
			}
			s = (s + 1) & g.mask
		}
	}
}

// probe returns the head entry index of the chain bucketed under cell
// (cx, cy), -1 when the cell is empty.
func (g *gridScratch) probe(cx, cy int32) int32 {
	k := gridPack(cx, cy)
	s := gridHash(k) & g.mask
	for {
		h := g.slotHead[s]
		if h < 0 || g.slotKey[s] == k {
			return h
		}
		s = (s + 1) & g.mask
	}
}

// entriesArePoints reports whether every entry is a degenerate (point)
// rectangle — the only shape the grid buckets soundly.
func entriesArePoints(entries []rtree.Entry) bool {
	for i := range entries {
		r := &entries[i].Rect
		if r.Min.X != r.Max.X || r.Min.Y != r.Max.Y {
			return false
		}
	}
	return true
}

// maxAbsCoord returns the largest coordinate magnitude of both leaves.
func maxAbsCoord(na, nb *rtree.Node) float64 {
	mx := 0.0
	for _, n := range []*rtree.Node{na, nb} {
		for i := range n.Entries {
			r := &n.Entries[i].Rect
			if v := math.Abs(r.Min.X); v > mx {
				mx = v
			}
			if v := math.Abs(r.Min.Y); v > mx {
				mx = v
			}
		}
	}
	return mx
}

// gridSideUsable reports whether a cell side is safe to bucket with: the
// side and its reciprocal must be finite and positive, and every
// coordinate must land within the int32 cell range with margin.
func gridSideUsable(side, maxAbs float64) bool {
	if !(side > 0) || math.IsInf(side, 1) {
		return false
	}
	inv := 1 / side
	if math.IsInf(inv, 1) || !(maxAbs*inv < gridMaxCoordCells) {
		return false
	}
	return true
}

// scanLeavesGrid is the grid-hash CP3. It hashes nb's points into a
// δ-sized grid, probes the 3×3 neighborhood for each point of na, counts
// exactly the candidate pairs evaluated in Stats.PointPairsCompared, and
// returns the smallest distance (squared) the heap accepted (+Inf if
// none), like the other scans. Without a usable finite bound, or with
// non-point entries or out-of-range coordinates, it delegates to the
// plane sweep.
func (j *join) scanLeavesGrid(g *gridScratch, na, nb *rtree.Node, kh *kHeap, extBound float64) float64 {
	T := extBound
	if th := kh.threshold(); th < T {
		T = th
	}
	if !(T > 0) || math.IsInf(T, 1) ||
		!entriesArePoints(na.Entries) || !entriesArePoints(nb.Entries) {
		return j.scanLeavesSweep(na, nb, kh, extBound)
	}
	maxAbs := maxAbsCoord(na, nb)
	side := j.metric.KeyToDist(T) * gridSlack
	if !gridSideUsable(side, maxAbs) {
		return j.scanLeavesSweep(na, nb, kh, extBound)
	}

	g.build(nb.Entries, side)
	// rebucketKey is the hysteresis trigger in key space, so the per-point
	// check costs one comparison and no KeyToDist round trip.
	rebucketKey := j.metric.DistToKey(side * gridRebucketFactor)
	minAccepted := math.Inf(1)
	var compared, probes, rebuckets int64
	for i := range na.Entries {
		ea := &na.Entries[i]
		if th := kh.threshold(); th < T {
			T = th
		}
		if T < rebucketKey {
			// δ shrank past the hysteresis: re-bucket with the tighter
			// side (unless the smaller cells would overflow the
			// coordinate range — the oversized grid stays sound).
			if ns := j.metric.KeyToDist(T) * gridSlack; gridSideUsable(ns, maxAbs) {
				side = ns
				g.build(nb.Entries, side)
				rebucketKey = j.metric.DistToKey(side * gridRebucketFactor)
				rebuckets++
				j.traceGridRebucket(len(nb.Entries))
			} else {
				rebucketKey = 0 // stop retrying a side that cannot shrink
			}
		}
		cx := int32(math.Floor(ea.Rect.Min.X * g.inv))
		cy := int32(math.Floor(ea.Rect.Min.Y * g.inv))
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				probes++
				for bi := g.probe(cx+dx, cy+dy); bi >= 0; bi = g.next[bi] {
					eb := &nb.Entries[bi]
					compared++
					d := j.metric.MinMinKey(ea.Rect, eb.Rect)
					if !kh.wouldAccept(d) {
						continue
					}
					kh.offer(kPair{
						distSq: d,
						p:      [2]float64{ea.Rect.Min.X, ea.Rect.Min.Y},
						q:      [2]float64{eb.Rect.Min.X, eb.Rect.Min.Y},
						refP:   ea.Ref,
						refQ:   eb.Ref,
					})
					if d < minAccepted {
						minAccepted = d
					}
				}
			}
		}
	}
	j.stats.pointPairsCompared.Add(compared)
	j.stats.gridCellsProbed.Add(probes)
	if rebuckets > 0 {
		j.stats.gridRebuckets.Add(rebuckets)
	}
	j.traceGridPruned(int64(len(na.Entries)*len(nb.Entries)) - compared)
	return minAccepted
}
