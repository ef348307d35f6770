package core

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/explain"
)

// Observer is the one handle a K-CPQ (KClosestPairs, ClosestPair and their
// self forms; not the semi, range or incremental joins) is observed
// through. Every field is optional; a nil *Observer leaves the query
// untimed and unlabelled. Metrics records once per query (and once per
// parallel run for worker utilization), never inside the traversal. The
// query's span opens on Explain when it is set, which then tees its
// events into Tracer in place of its own tee, and the slow-log line
// embeds Explain's snapshot.
type Observer struct {
	Tracer  obs.Tracer
	Metrics *obs.EngineMetrics
	SlowLog *obs.SlowQueryLog
	Explain *explain.Capture
}

// observed is one query under an Observer; the zero value observes nothing.
type observed struct {
	o       *Observer
	label   string
	workers int
	started time.Time
}

// start labels the query j runs for K = k, records the explain plan, opens
// the query's span on j and starts the clock.
func (o *Observer) start(j *join, k int, self bool) observed {
	q := observed{o: o, label: queryLabel(j.opts, k, self), workers: j.opts.Workers()}
	o.Explain.SetPlan(explain.Plan{
		Label:     q.label,
		Algorithm: j.opts.Algorithm.String(),
		K:         k,
		Workers:   q.workers,
	})
	tr := o.Tracer
	if o.Explain != nil {
		if tr != nil {
			o.Explain.SetTee(tr)
		}
		tr = o.Explain
	}
	j.span = obs.StartSpan(tr, q.label)
	q.started = time.Now()
	return q
}

// finish builds the query's one cost report from its pairs and stats, or
// its err, and records it: in the metrics, then as the capture's "join"
// phase and totals, then in the slow-query log with the snapshot embedded.
func (q observed) finish(pairs []Pair, stats Stats, err error) {
	o := q.o
	if o == nil {
		return
	}
	elapsed := time.Since(q.started)
	r := obs.QueryReport{Label: q.label, Seconds: elapsed.Seconds(), Workers: q.workers}
	if err != nil {
		r.Err = err.Error()
	} else {
		r.Accesses = stats.Accesses()
		r.NodePairs = stats.NodePairsProcessed
		r.PointPairs = stats.PointPairsCompared
		r.CacheHits = stats.NodeCacheHits
		r.CacheMisses = stats.NodeCacheMisses
		r.Results = len(pairs)
		if len(pairs) > 0 {
			r.KthDistance = pairs[len(pairs)-1].Dist
		}
	}
	o.Metrics.Record(r)
	if c := o.Explain; c != nil {
		c.Phase("join", elapsed.Nanoseconds())
		c.SetResult(elapsed.Nanoseconds(), stats.explainStats(), r.Results, r.KthDistance)
		if o.SlowLog != nil {
			r.Explain, _ = c.Snapshot().JSON() // nil on error: no embedding
		}
	}
	o.SlowLog.Record(r)
}

// queryLabel renders the query description used as the span label, the
// explain plan's label and the metrics/slow-log aggregation key; a self
// join's label reads "HEAP self k=1", so it never shares a key with a
// bichromatic query.
func queryLabel(opts Options, k int, self bool) string {
	alg := opts.Algorithm.String()
	if self {
		alg += " self"
	}
	if w := opts.Workers(); w > 1 {
		return fmt.Sprintf("%s k=%d par=%d", alg, k, w)
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
