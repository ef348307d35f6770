package core

import "repro/internal/obs/explain"

// ExplainStats renders the work counters in the explain snapshot's
// canonical form, for the facade's query totals.
func (s Stats) ExplainStats() explain.Stats {
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
