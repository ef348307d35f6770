package core

import (
	"context"
	"fmt"

	"repro/internal/rtree"
)

// WithinDistance answers the classic distance join that K-CPQ generalizes:
// report every pair (p, q) ∈ P × Q with dist(p, q) <= eps. It reuses the
// paper's machinery with a fixed pruning bound T = eps — subtree pairs
// with MINMINDIST > eps cannot contribute — and streams results through
// fn, which may return false to stop early. The traversal is iterative
// (HEAP-style ordering is unnecessary since T never changes, so plain
// stack order is used). Options contribute the metric and the height
// strategy; whatever Algorithm they name, sub-pairs are generated by the
// expansion kernel in its prune-only (EXH) form against the fixed bound.
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
	if eps < 0 {
		return Stats{}, fmt.Errorf("core: negative distance bound %g", eps)
	}
	if ta.Len() == 0 || tb.Len() == 0 {
		return Stats{}, nil
	}
	opts.Algorithm = Exhaustive // MINMINDIST keys, no bound tightening, no tie keys
	j, err := newJoin(ta, tb, 1, opts, false)
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
	f := j.sc.frame(0)
	stack := []nodePair{root}
	stopped := false
	for len(stack) > 0 && !stopped {
		if err := j.cancel.poll(ctx); err != nil {
			return Stats{}, err
		}
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if p.minminSq > epsKey {
			j.stats.subPairsPruned.Add(1)
			continue
		}
		na, nb, err := j.readPair(p, f)
		if err != nil {
			return Stats{}, err
		}
		if na.IsLeaf() && nb.IsLeaf() {
			for i := range na.Entries {
				ea := &na.Entries[i]
				for t := range nb.Entries {
					eb := &nb.Entries[t]
					j.stats.pointPairsCompared.Add(1)
					key := j.metric.MinMinKey(ea.Rect, eb.Rect)
					if key > epsKey {
						continue
					}
					ok := fn(Pair{
						P:    ea.Rect.Min,
						Q:    eb.Rect.Min,
						RefP: ea.Ref,
						RefQ: eb.Ref,
						Dist: j.metric.KeyToDist(key),
					})
					if !ok {
						stopped = true
						break
					}
				}
				if stopped {
					break
				}
			}
			continue
		}
		e := j.beginExpand(&j.sc.kern, p, na, nb, j.bound)
		stack = e.finish(stack, epsKey)
	}

	stats := j.stats.snapshot()
	stats.IOP = ta.Pool().Stats().Sub(startA)
	if ta.Pool() != tb.Pool() {
		stats.IOQ = tb.Pool().Stats().Sub(startB)
	}
	return stats, nil
}
