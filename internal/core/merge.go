package core

import "repro/internal/geom"

// MergeTopK folds several partial K-CPQ result lists — one per shard
// pair in the scatter-gather executor — into the global top K, sorted
// ascending, exactly as one monolithic query over the union would
// return them.
//
// Bit-identity matters here: a Pair's Dist is metric.KeyToDist of the
// squared key the leaf scan computed, and DistToKey(KeyToDist(x)) is
// not bit-stable under L2 (sqrt, then square). The merge therefore
// never round-trips through Dist. It reconstructs each pair's key with
// metric.Key(P, Q) — for the point data sets the shard partitioner
// splits, the identical arithmetic Metric.MinMinKey performed on the
// degenerate point rects during the original leaf scan — then offers
// the pairs into a fresh K-heap and re-emits through the same
// sorted-order comparator and KeyToDist conversion as an ordinary
// query. Distances and tie order come out bit-identical to the
// unsharded join's.
func MergeTopK(metric geom.Metric, k int, parts ...[]Pair) []Pair {
	h := newKHeap(k)
	for _, part := range parts {
		for i := range part {
			p := &part[i]
			d := metric.Key(p.P, p.Q)
			if !h.wouldAccept(d) {
				continue
			}
			h.offer(kPair{
				distSq: d,
				p:      [2]float64{p.P.X, p.P.Y},
				q:      [2]float64{p.Q.X, p.Q.Y},
				refP:   p.RefP,
				refQ:   p.RefQ,
			})
		}
	}
	return h.results(metric)
}
