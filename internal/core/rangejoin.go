package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/rtree"
)

// WithinDistance answers the classic distance join that K-CPQ generalizes:
// report every pair (p, q) ∈ P × Q with dist(p, q) <= eps. It reuses the
// paper's machinery with a fixed pruning bound T = eps — subtree pairs
// with MINMINDIST > eps cannot contribute — and streams results through
// fn, which may return false to stop early. Since T never changes, node
// pairs are taken in depth-first stack order, expanded by the kernel in
// its prune-only (EXH) form, cut at eps, whatever Algorithm the options
// name (they contribute the metric and the height strategy). A leaf pair goes
// through the leaf sweep under the bound eps into the join's K-heap,
// opened with no K limit, which is streamed to fn and emptied.
//
// WithinDistance is the non-cancellable shim over WithinDistanceContext.
func WithinDistance(ta, tb *rtree.Tree, eps float64, opts Options, fn func(Pair) bool) (Stats, error) {
	return WithinDistanceContext(context.Background(), ta, tb, eps, opts, fn)
}

// WithinDistanceContext is WithinDistance under a context; see
// KClosestPairsContext for the cancellation contract.
func WithinDistanceContext(ctx context.Context, ta, tb *rtree.Tree, eps float64, opts Options, fn func(Pair) bool) (Stats, error) {
	if err := opts.validate(); err != nil {
		return Stats{}, err
	}
	if !(eps >= 0) {
		return Stats{}, fmt.Errorf("core: distance bound %g is negative or NaN", eps)
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return Stats{}, nil
	}
	opts.Algorithm = Exhaustive // MINMINDIST keys, no bound tightening, no tie keys
	j, err := newJoin(ta, tb, math.MaxInt, opts, false)
	if err != nil {
		return Stats{}, err
	}
	defer j.release()
	startA := ta.Pool().Stats()
	startB := tb.Pool().Stats()
	epsKey := j.metric.DistToKey(eps)

	root, err := j.rootPair()
	if err != nil {
		return Stats{}, err
	}
	f := j.sc.frame(0) // its sub-pair list is the stack
	f.subs = append(f.subs[:0], root)
	for len(f.subs) > 0 {
		if err := j.cancel.poll(ctx); err != nil {
			return Stats{}, err
		}
		p := f.subs[len(f.subs)-1]
		f.subs = f.subs[:len(f.subs)-1]
		if p.minminSq > epsKey {
			j.stats.subPairsPruned++
			continue
		}
		na, nb, err := j.readPair(p, f)
		if err != nil {
			return Stats{}, err
		}
		if na.IsLeaf() && nb.IsLeaf() {
			// The sweep offers every pair inside its x band, some beyond eps.
			j.scanLeavesSweep(na, nb, j.kheap, epsKey)
			for i := range j.kheap.pairs {
				if kp := &j.kheap.pairs[i]; kp.distSq <= epsKey && !fn(kp.public(j.metric)) {
					return j.poolStats(startA, startB), nil
				}
			}
			j.kheap.reset()
			continue
		}
		e := j.beginExpand(&j.sc.kern, p, na, nb, epsKey)
		f.subs = e.finish(f.subs, epsKey)
	}
	return j.poolStats(startA, startB), nil
}
