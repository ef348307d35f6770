package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/rtree"
)

// Advice is a recommended query plan for a closest-pair query.
type Advice struct {
	// Algorithm is the recommended CPQ algorithm.
	Algorithm Algorithm
	// Options is a complete option set embodying the recommendation.
	Options Options
	// Overlap is the measured portion of workspace overlap that drove the
	// decision.
	Overlap float64
	// Reason explains the choice in the paper's terms.
	Reason string
}

// Advise encodes the paper's experimental guidelines (Sections 4.4 and
// 5.3) as an optimizer rule: measure the workspace overlap of the two
// trees and, together with the buffer size available to the query, pick
// the algorithm the study found most robust for that regime.
//
//   - Disjoint or barely overlapping workspaces: STD and HEAP are both
//     excellent; STD is returned since it also exploits any buffer.
//   - Overlapping workspaces with no or a tiny buffer (B <= 4 pages):
//     HEAP — it wins at zero buffer and is insensitive to small buffers.
//   - Overlapping workspaces with a reasonable buffer (B > 4): STD — the
//     paper found HEAP's buffer insensitivity lets STD overtake it.
func Advise(ta, tb *rtree.Tree, bufferPages int) (Advice, error) {
	ba, err := ta.Bounds()
	if err != nil {
		return Advice{}, err
	}
	bb, err := tb.Bounds()
	if err != nil {
		return Advice{}, err
	}
	overlap := workspaceOverlap(ba, bb)

	var alg Algorithm
	var reason string
	switch {
	case overlap <= 0.05:
		alg = SortedDistances
		reason = fmt.Sprintf(
			"workspaces overlap by %.1f%% (<= 5%%): the non-exhaustive algorithms win by up to an order of magnitude; STD also exploits any buffer", overlap*100)
	case bufferPages <= 4:
		alg = Heap
		reason = fmt.Sprintf(
			"workspaces overlap by %.1f%% and the buffer is %d pages (<= 4): HEAP is the most efficient choice at zero/small buffers", overlap*100, bufferPages)
	default:
		alg = SortedDistances
		reason = fmt.Sprintf(
			"workspaces overlap by %.1f%% and the buffer is %d pages (> 4): STD outperforms the buffer-insensitive HEAP", overlap*100, bufferPages)
	}
	return Advice{
		Algorithm: alg,
		Options:   DefaultOptions(alg),
		Overlap:   overlap,
		Reason:    reason,
	}, nil
}

// workspaceOverlap returns the portion of overlap between two workspaces:
// the intersection area divided by the smaller workspace area (1.0 when
// one workspace is contained in the other; 0 for disjoint workspaces).
// Degenerate (zero-area) workspaces fall back to an intersect test.
func workspaceOverlap(a, b geom.Rect) float64 {
	if a.IsEmpty() || b.IsEmpty() {
		return 0
	}
	inter := a.OverlapArea(b)
	smaller := a.Area()
	if ba := b.Area(); ba < smaller {
		smaller = ba
	}
	if smaller == 0 {
		if a.Intersects(b) {
			return 1
		}
		return 0
	}
	return inter / smaller
}
