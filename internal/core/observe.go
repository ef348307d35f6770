package core

import (
	"fmt"

	"repro/internal/obs/explain"
)

// This file holds every explain capture point of the query engine. A
// K-CPQ (KClosestPairs, ClosestPair and their self forms; not the semi,
// range or incremental joins) is observed through Options.Explain. The
// discipline (held by the root package's TestHotPathSourceRules) is that
// engine code calls a capture method only in a helper that leads with a
// nil guard on the capture, so a query without one pays one pointer
// comparison per capture point and allocates nothing — verified by the
// zero-alloc test in obs_test.go.
//
// All bound values travel as metric keys (squared distances under L2),
// never through KeyToDist: the helpers run inside the traversal, where
// the same test bans math.Sqrt. Consumers convert at the edge.

// The pruning rules a bound step names (explain.BoundStep.Source).
const (
	srcMinMax = "minmax" // Inequality 2: a sub-pair's MINMAXDIST (K = 1)
	srcMaxMax = "maxmax" // the MAXMAXDIST prefix guaranteeing K pairs
	srcKHeap  = "kheap"  // the K-th distance found so far
)

// observe labels the query j runs for K = k on the given number of
// workers and begins it in c: the plan, and the clock the bound
// trajectory and the totals are timed from.
func (j *join) observe(c *explain.Capture, k int, self bool, workers int) {
	if c == nil {
		return
	}
	c.Begin(explain.Plan{
		Label:     queryLabel(j.opts.Algorithm, k, self, workers),
		Algorithm: j.opts.Algorithm.String(),
		K:         k,
		Workers:   workers,
	})
	j.ex = c
}

// boundSource names the rule behind an auxiliary-bound update: MINMAXDIST
// (Inequality 2) for K = 1, the MAXMAXDIST prefix rule otherwise.
func (j *join) boundSource() string {
	if j.k == 1 {
		return srcMinMax
	}
	return srcMaxMax
}

// recordBound records a bound step when the effective bound
// T = min(aux bound, K-heap threshold) strictly decreased since the last
// one this join recorded. j.lastT is unsynchronized: a parallel worker
// records through a join of its own.
func (j *join) recordBound(src string) {
	if j.ex == nil {
		return
	}
	if t := j.T(); t < j.lastT {
		j.ex.Bound(j.lastT, t, src)
		j.lastT = t
	}
}

// recordResult records the query's pairs and stats in the capture as its
// totals. A failed query (nil pairs, zero stats) records zero totals.
func (j *join) recordResult(pairs []Pair, stats Stats) {
	if j.ex == nil {
		return
	}
	var kth float64
	if len(pairs) > 0 {
		kth = pairs[len(pairs)-1].Dist
	}
	j.ex.Finish(stats.explainStats(), len(pairs), kth)
}

// queryLabel renders the query description used as the explain plan's
// label; a self join's label reads "HEAP self k=1", so it never reads
// like a bichromatic query's.
func queryLabel(a Algorithm, k int, self bool, workers int) string {
	alg := a.String()
	if self {
		alg += " self"
	}
	if workers > 1 {
		return fmt.Sprintf("%s k=%d par=%d", alg, k, workers)
	}
	return fmt.Sprintf("%s k=%d", alg, k)
}

// explainStats renders the work counters in the explain snapshot's
// canonical form.
func (s Stats) explainStats() explain.Stats {
	return explain.Stats{
		Accesses:           s.Accesses(),
		ReadsP:             s.IOP.Reads,
		ReadsQ:             s.IOQ.Reads,
		BufferHits:         s.IOP.Hits + s.IOQ.Hits,
		NodePairsProcessed: s.NodePairsProcessed,
		SubPairsGenerated:  s.SubPairsGenerated,
		SubPairsPruned:     s.SubPairsPruned,
		PointPairsCompared: s.PointPairsCompared,
		MaxQueueSize:       s.MaxQueueSize,
		NodeCacheHits:      s.NodeCacheHits,
		NodeCacheMisses:    s.NodeCacheMisses,
	}
}
