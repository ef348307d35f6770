package core

import (
	"fmt"
	"sync/atomic"

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
	// heap pops that read two nodes).
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
	// heap (0 for the recursive algorithms).
	MaxQueueSize int
	// HeapBatches and HeapBatchPairs are the parallel engine's steal
	// counters: the batches its workers claimed from the shared frontier
	// and the node pairs those carried. Both are zero for a sequential
	// query, which pops one pair at a time.
	HeapBatches, HeapBatchPairs int64
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
	if s.HeapBatches > 0 {
		out += fmt.Sprintf(" heapBatches=%d (%d pairs)", s.HeapBatches, s.HeapBatchPairs)
	}
	if s.NodeCacheHits > 0 || s.NodeCacheMisses > 0 {
		out += fmt.Sprintf(" nodeCache=%d/%d hitRatio=%.3f",
			s.NodeCacheHits, s.NodeCacheHits+s.NodeCacheMisses, s.NodeCacheHitRatio())
	}
	return out
}

// Merge folds other into s: IO deltas and work counters add element-wise,
// the queue high-water mark takes the maximum. It is the one aggregation
// helper for combining per-shard (or otherwise partial) query stats —
// the shard executor's gather and the facade's per-tree cache-delta fold
// both go through it, so a new Stats field only needs its combination
// rule stated here. Merge operates on snapshots: take them with
// statsAcc.snapshot (or pool/cache Stats diffs) first; the snapshots
// themselves are plain values, so merging needs no atomics.
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
	s.HeapBatches += other.HeapBatches
	s.HeapBatchPairs += other.HeapBatchPairs
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

// statsAcc accumulates the work counters of one query with atomic
// operations, so both the sequential algorithms and the parallel HEAP
// workers share the same bookkeeping and the race detector stays clean.
// IO deltas are attached when the query finishes (see snapshot callers).
type statsAcc struct {
	nodePairsProcessed atomic.Int64
	subPairsGenerated  atomic.Int64
	subPairsPruned     atomic.Int64
	pointPairsCompared atomic.Int64
	maxQueueSize       atomic.Int64
	heapBatches        atomic.Int64
	heapBatchPairs     atomic.Int64
}

// observeQueueLen raises the queue high-water mark (CAS max-update) and
// reports whether n set a new mark — the signal behind EvHeapHighWater.
func (a *statsAcc) observeQueueLen(n int) bool {
	v := int64(n)
	for {
		cur := a.maxQueueSize.Load()
		if v <= cur {
			return false
		}
		if a.maxQueueSize.CompareAndSwap(cur, v) {
			return true
		}
	}
}

// snapshot converts the accumulated counters into the public Stats value.
func (a *statsAcc) snapshot() Stats {
	return Stats{
		NodePairsProcessed: a.nodePairsProcessed.Load(),
		SubPairsGenerated:  a.subPairsGenerated.Load(),
		SubPairsPruned:     a.subPairsPruned.Load(),
		PointPairsCompared: a.pointPairsCompared.Load(),
		MaxQueueSize:       int(a.maxQueueSize.Load()),
		HeapBatches:        a.heapBatches.Load(),
		HeapBatchPairs:     a.heapBatchPairs.Load(),
	}
}
