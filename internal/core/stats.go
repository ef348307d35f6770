package core

import (
	"fmt"

	"repro/internal/storage"
)

// Stats reports the cost of one closest-pair query. Disk accesses (buffer
// misses) are the paper's cost metric; the remaining counters expose the
// algorithms' internal work for analysis and tests.
type Stats struct {
	// IOP and IOQ are the storage counter deltas of the two trees' buffer
	// pools over the query (the P-tree and Q-tree of the join).
	IOP, IOQ storage.IOStats
	// NodePairsProcessed counts node pairs expanded (recursive calls or
	// heap pops that read two nodes). In the task engine a leaf pair that
	// a worker's leaf batch scans without queueing it counts once too.
	NodePairsProcessed int64
	// SubPairsGenerated counts candidate sub-pairs produced during
	// expansion, before pruning.
	SubPairsGenerated int64
	// SubPairsPruned counts candidate sub-pairs discarded by the
	// MINMINDIST > T test.
	SubPairsPruned int64
	// PointPairsCompared counts point-to-point distance evaluations at
	// the leaf level.
	PointPairsCompared int64
	// MaxQueueSize is the high-water mark of the HEAP algorithm's pair
	// heap (0 for the recursive algorithms); in parallel, the largest
	// queue any worker held. A leaf pair that a worker's leaf batch scans
	// never enters a queue, so it is not counted here.
	MaxQueueSize int
	// NodeCacheHits and NodeCacheMisses are the decoded-node cache lookup
	// deltas of both trees over the query (both zero when no cache is
	// attached, the default). A hit serves a node without touching the
	// buffer pool, so it appears in neither IOP nor IOQ — the counters are
	// reported separately to keep the paper's disk-access accounting
	// honest.
	NodeCacheHits, NodeCacheMisses int64
}

// Accesses returns the total disk accesses of both trees — the quantity on
// the y-axis of every figure in the paper.
func (s Stats) Accesses() int64 {
	return s.IOP.Reads + s.IOQ.Reads
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	out := fmt.Sprintf(
		"accesses=%d (P=%d Q=%d) nodePairs=%d subPairs=%d pruned=%d pointPairs=%d maxQueue=%d",
		s.Accesses(), s.IOP.Reads, s.IOQ.Reads, s.NodePairsProcessed,
		s.SubPairsGenerated, s.SubPairsPruned, s.PointPairsCompared, s.MaxQueueSize)
	if s.NodeCacheHits > 0 || s.NodeCacheMisses > 0 {
		out += fmt.Sprintf(" nodeCache=%d/%d hitRatio=%.3f",
			s.NodeCacheHits, s.NodeCacheHits+s.NodeCacheMisses, s.NodeCacheHitRatio())
	}
	return out
}

// Merge folds other into s: IO deltas and work counters add element-wise,
// the queue high-water mark takes the maximum. It is the one aggregation
// helper for combining partial query stats — the query's per-tree
// cache-delta fold goes through it, so a new Stats field only needs its
// combination rule stated here (and in taskRun.work, which folds a
// parallel worker's workCounters the same way).
func (s *Stats) Merge(other Stats) {
	s.IOP = s.IOP.Add(other.IOP)
	s.IOQ = s.IOQ.Add(other.IOQ)
	s.NodePairsProcessed += other.NodePairsProcessed
	s.SubPairsGenerated += other.SubPairsGenerated
	s.SubPairsPruned += other.SubPairsPruned
	s.PointPairsCompared += other.PointPairsCompared
	if other.MaxQueueSize > s.MaxQueueSize {
		s.MaxQueueSize = other.MaxQueueSize
	}
	s.NodeCacheHits += other.NodeCacheHits
	s.NodeCacheMisses += other.NodeCacheMisses
}

// NodeCacheHitRatio returns hits / lookups of the decoded-node cache over
// the query, 0 when no cache was attached.
func (s Stats) NodeCacheHitRatio() float64 {
	lookups := s.NodeCacheHits + s.NodeCacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(s.NodeCacheHits) / float64(lookups)
}

// workCounters are the work counters of one join. One goroutine writes
// them: the query's own, or a parallel worker, whose join folds them into
// the query's once, under the run's mutex, by Merge's rule (taskRun.work).
// IO deltas are attached when the query finishes (poolStats).
type workCounters struct {
	nodePairsProcessed int64
	subPairsGenerated  int64
	subPairsPruned     int64
	pointPairsCompared int64
	maxQueueSize       int
}

// poolStats is the join's counters with the access deltas of the two
// trees' pools since startA and startB, a shared pool's reported once.
func (j *join) poolStats(startA, startB storage.IOStats) Stats {
	c := &j.stats
	stats := Stats{
		IOP:                j.ta.Pool().Stats().Sub(startA),
		NodePairsProcessed: c.nodePairsProcessed,
		SubPairsGenerated:  c.subPairsGenerated,
		SubPairsPruned:     c.subPairsPruned,
		PointPairsCompared: c.pointPairsCompared,
		MaxQueueSize:       c.maxQueueSize,
	}
	if j.ta.Pool() != j.tb.Pool() {
		stats.IOQ = j.tb.Pool().Stats().Sub(startB)
	}
	return stats
}
