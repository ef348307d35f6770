package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// Observer is the one handle a K-CPQ (KClosestPairs, ClosestPair and their
// self forms; not the semi, range or incremental joins) is observed
// through. Both fields are optional; a nil *Observer leaves the query
// untimed and unlabelled. The query's span opens on Explain when it is
// set, which then tees its events into Tracer in place of its own tee.
type Observer struct {
	Tracer  obs.Tracer
	Explain *explain.Capture
}

// observed is one query under an Observer: its explain capture and the
// time it started. The zero value records nothing.
type observed struct {
	c       *explain.Capture
	started time.Time
}

// start labels the query j runs for K = k on the given number of workers,
// records the explain plan, opens the query's span on j and starts the
// clock.
func (o *Observer) start(j *join, k int, self bool, workers int) observed {
	label := queryLabel(j.opts.Algorithm, k, self, workers)
	o.Explain.SetPlan(explain.Plan{
		Label:     label,
		Algorithm: j.opts.Algorithm.String(),
		K:         k,
		Workers:   workers,
	})
	tr := o.Tracer
	if o.Explain != nil {
		if tr != nil {
			o.Explain.SetTee(tr)
		}
		tr = o.Explain
	}
	j.span = obs.StartSpan(tr, label)
	return observed{c: o.Explain, started: time.Now()}
}

// finish records the query's pairs and stats in the explain capture, as
// its "join" phase and its totals. A failed query (nil pairs, zero stats)
// records zero totals.
func (q observed) finish(pairs []Pair, stats Stats) {
	if q.c == nil {
		return
	}
	elapsed := time.Since(q.started).Nanoseconds()
	var kth float64
	if len(pairs) > 0 {
		kth = pairs[len(pairs)-1].Dist
	}
	q.c.Phase("join", elapsed)
	q.c.SetResult(elapsed, stats.explainStats(), len(pairs), kth)
}

// queryLabel renders the query description used as the span label and
// the explain plan's label; a self join's label reads "HEAP self k=1", so
// it never reads like a bichromatic query's.
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
