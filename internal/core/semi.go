package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/rtree"
)

// SemiClosestPairs answers the semi-CPQ of the paper's future-work section
// (Section 6): for each point of the first data set, its nearest point in
// the second, so every P point appears exactly once in the result. Pairs
// are returned in ascending distance order (with ties broken by RefP for
// determinism).
//
// The implementation iterates the P-tree's leaves and runs a best-first
// nearest-neighbor search on the Q-tree per point; disk accesses on both
// trees are reported in the stats as usual.
//
// SemiClosestPairs is the non-cancellable shim over
// SemiClosestPairsContext.
func SemiClosestPairs(ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	return SemiClosestPairsContext(context.Background(), ta, tb, opts)
}

// SemiClosestPairsContext is SemiClosestPairs under a context: the
// per-point callback checks ctx before each nearest-neighbor search (each
// search is many node reads, so no stride gating is needed) and stops the
// leaf iteration with ctx.Err() when it fires.
func SemiClosestPairsContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, Stats{}, ErrEmptyInput
	}
	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()

	var stats Stats
	out := make([]Pair, 0, ta.Len())
	var innerErr error
	err := ta.All(func(it rtree.Item) bool {
		if cerr := ctx.Err(); cerr != nil {
			innerErr = cerr
			return false
		}
		p := it.Rect.Center()
		nns, err := tb.NearestNeighborsMetric(p, 1, opts.Metric)
		if err == nil && len(nns) == 0 {
			err = rtree.ErrNotFound
		}
		if err != nil {
			innerErr = fmt.Errorf("core: semi-CPQ nearest neighbor for %v: %w", p, err)
			return false
		}
		nn := nns[0]
		stats.PointPairsCompared++
		out = append(out, Pair{
			P:    p,
			Q:    nn.Rect.Center(),
			RefP: it.Ref,
			RefQ: nn.Ref,
			Dist: nn.Dist,
		})
		return true
	})
	if err != nil {
		return nil, Stats{}, err
	}
	if innerErr != nil {
		return nil, Stats{}, innerErr
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].RefP < out[j].RefP
	})
	// With a shared pool report the delta once.
	stats.IOP = ta.Pool().Stats().Sub(startA)
	if ta.Pool() != tb.Pool() {
		stats.IOQ = tb.Pool().Stats().Sub(startB)
	}
	return out, stats, nil
}
