package core

import (
	"cmp"
	"context"
	"math"
	"slices"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// SemiClosestPairsBatched answers the same semi-CPQ as SemiClosestPairs —
// for each point of the first tree, its nearest point in the second — but
// with a batched traversal instead of one nearest-neighbor search per
// point: the P-tree's leaves are visited once, and for each leaf a single
// best-first search over the Q-tree serves all of the leaf's points
// simultaneously, pruned by the leaf's worst unresolved best-so-far
// distance. This shares most Q-node reads among the ~M points of a P leaf
// (see the "semi" benchmark for the comparison). The search runs on the
// join's scratch frames, pair heap and expansion kernel (in its
// prune-only form, whatever Algorithm the options name). Pairs are
// returned in ascending distance order, ties broken by RefP.
//
// SemiClosestPairsBatched is the non-cancellable shim over
// SemiClosestPairsBatchedContext.
func SemiClosestPairsBatched(ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	return SemiClosestPairsBatchedContext(context.Background(), ta, tb, opts)
}

// SemiClosestPairsBatchedContext is SemiClosestPairsBatched under a
// context; see KClosestPairsContext for the cancellation contract.
func SemiClosestPairsBatchedContext(ctx context.Context, ta, tb *rtree.Tree, opts Options) ([]Pair, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return nil, Stats{}, ErrEmptyInput
	}
	opts.Algorithm = Exhaustive // MINMINDIST keys, no bound tightening, no tie keys
	j, err := newJoin(ta, tb, 1, opts, false)
	if err != nil {
		return nil, Stats{}, err
	}
	defer j.release()
	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()

	out := make([]Pair, 0, ta.Len())
	if err := j.semiWalk(ctx, ta.RootID(), 0, &out); err != nil {
		return nil, Stats{}, err
	}
	slices.SortFunc(out, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.RefP, b.RefP))
	})
	return out, j.poolStats(startA, startB), nil
}

// semiWalk visits the P-tree's leaves depth first, each depth's node in
// its own frame, and appends each leaf's pairs to out. Each visit, like
// each pop of semiLeaf's search, is a cancellation point.
func (j *join) semiWalk(ctx context.Context, id storage.PageID, depth int, out *[]Pair) error {
	if err := j.cancel.poll(ctx); err != nil {
		return err
	}
	f := j.sc.frame(depth)
	if err := j.ta.ReadNodeInto(id, &f.na); err != nil {
		return err
	}
	if f.na.IsLeaf() {
		return j.semiLeaf(ctx, f, out)
	}
	for i := range f.na.Entries {
		if err := j.semiWalk(ctx, f.na.Entries[i].Child(), depth+1, out); err != nil {
			return err
		}
	}
	return nil
}

// semiLeaf finds the Q-nearest neighbor of every point of the P leaf in
// f.na with one best-first search over the Q-tree, decoding into f.nb. A
// (leaf, Q node) pair's key, MINMINDIST to the leaf's MBR, bounds every
// leaf point's distance into the Q subtree, so the search prunes and
// stops at keys above worst, the largest best-so-far key among the leaf's
// points. The bests are the leaf's pairs in out, each Dist holding its
// key until the search ends.
func (j *join) semiLeaf(ctx context.Context, f *frame, out *[]Pair) error {
	leaf := &f.na
	base := len(*out)
	for i := range leaf.Entries {
		e := &leaf.Entries[i]
		*out = append(*out, Pair{P: e.Rect.Min, RefP: e.Ref, Dist: math.Inf(1)})
	}
	best := (*out)[base:]
	worst := math.Inf(1)

	h := &j.sc.queue
	h.reset()
	h.push(nodePair{a: leaf.ID, b: j.tb.RootID(), lb: int32(j.tb.Height() - 1)})
	for h.Len() > 0 {
		if err := j.cancel.poll(ctx); err != nil {
			return err
		}
		p := h.pop()
		if p.minminSq > worst {
			break
		}
		if err := j.tb.ReadNodeInto(p.b, &f.nb); err != nil {
			return err
		}
		j.stats.nodePairsProcessed++
		if f.nb.IsLeaf() {
			worst = j.semiScan(best, f.nb.Entries)
			continue
		}
		e := j.beginExpand(&j.sc.kern, p, leaf, &f.nb, j.bound) // a leaf and an inner node: expandBOnly
		f.subs = e.finish(f.subs[:0], worst)
		for _, sp := range f.subs {
			h.push(sp)
		}
	}
	for i := range best {
		best[i].Dist = j.metric.KeyToDist(best[i].Dist)
	}
	return nil
}

// semiScan compares every point of a Q leaf with every point of the P
// leaf, keeps each P point's best in best, and returns the largest key.
func (j *join) semiScan(best []Pair, qs []rtree.Entry) float64 {
	for qi := range qs {
		q := &qs[qi]
		for pi := range best {
			if k := j.metric.Key(best[pi].P, q.Rect.Min); k < best[pi].Dist {
				best[pi].Q, best[pi].RefQ, best[pi].Dist = q.Rect.Min, q.Ref, k
			}
		}
	}
	j.stats.pointPairsCompared += int64(len(qs) * len(best))
	worst := 0.0
	for i := range best {
		worst = max(worst, best[i].Dist)
	}
	return worst
}
