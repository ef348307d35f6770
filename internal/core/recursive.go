package core

import (
	"context"

	"repro/internal/obs"
	"repro/internal/sortx"
)

// runRecursive drives the four recursive algorithms (Naive, EXH, SIM, STD)
// from the given node pair. Each visit polls the cancellation gate once,
// which also makes runRecursive itself a cancellation point for its own
// sub-pair loop below. depth is the recursion depth, 0 at the root pair: it
// selects the scratch frame whose nodes and sub-pair list this visit uses.
func (j *join) runRecursive(ctx context.Context, p nodePair, depth int) error {
	if err := j.cancel.poll(ctx); err != nil {
		return err
	}
	if j.prunes() && p.minminSq > j.T() {
		j.stats.subPairsPruned.Add(1)
		return nil
	}
	f := j.sc.frame(depth)
	if err := j.readPair(p, f); err != nil {
		return err
	}
	if f.na.IsLeaf() && f.nb.IsLeaf() {
		j.scanLeaves(&f.na, &f.nb)
		j.traceBound(obs.SourceKHeap)
		return nil
	}
	// The expansion tightens T for SIM and STD and drops pairs that cannot
	// contain a result (CP2: keep MINMINDIST <= T). The sub-pairs go into
	// this depth's own list: the recursion below keeps each level's
	// sub-pairs live while descending, so depths cannot share one.
	f.subs = j.expandInto(p, &f.na, &f.nb, f.subs[:0])
	subs := f.subs
	if j.opts.Algorithm == SortedDistances {
		// CP2 of STD: process candidates in ascending MINMINDIST order
		// (tie strategy applied on equal distances), which shrinks T
		// faster and prunes more of the remaining pairs.
		j.sc.sortBuf = sortx.SortBuf(subs, j.sc.sortBuf,
			func(a, b nodePair) bool { return a.less(&b) }, j.opts.Sort)
	}
	for _, sp := range subs {
		// T keeps shrinking while the loop runs; runRecursive re-checks.
		if err := j.runRecursive(ctx, sp, depth+1); err != nil {
			return err
		}
	}
	return nil
}
