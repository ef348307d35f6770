package core

import (
	"repro/internal/obs"
)

// This file holds every tracer emission helper of the query engine. The
// discipline (enforced by the cpqlint obshooks check) is that hot-path
// code never calls a Span or Tracer method outside a nil guard: each
// helper begins with `if j.span == nil { return }`, so a query without a
// tracer pays one pointer comparison per potential event and allocates
// nothing — verified by the zero-alloc test in obs_test.go.
//
// All bound values travel as metric keys (squared distances under L2),
// never through KeyToDist: the helpers run inside the traversal, where
// the sqrtfree check bans math.Sqrt. Consumers convert at the edge.

// traceNodeExpanded emits EvNodeExpanded for one processed node pair
// (levels of both sides, MINMINDIST key).
func (j *join) traceNodeExpanded(p nodePair) {
	if j.span == nil {
		return
	}
	j.span.Emit(obs.Event{
		Kind:   obs.EvNodeExpanded,
		Level:  int32(p.la),
		Level2: int32(p.lb),
		New:    p.minminSq,
	})
}

// boundSource names the rule behind an auxiliary-bound update: MINMAXDIST
// (Inequality 2) for K = 1, the MAXMAXDIST prefix rule otherwise.
func (j *join) boundSource() obs.BoundSource {
	if j.k == 1 {
		return obs.SourceMinMax
	}
	return obs.SourceMaxMax
}

// traceBound emits EvBoundTightened when the sequential effective bound
// T = min(aux bound, K-heap threshold) strictly decreased since the last
// emission. Sequential only: j.lastT is unsynchronized.
func (j *join) traceBound(src obs.BoundSource) {
	if j.span == nil {
		return
	}
	if t := j.T(); t < j.lastT {
		j.span.Emit(obs.Event{Kind: obs.EvBoundTightened, Old: j.lastT, New: t, Source: src})
		j.lastT = t
	}
}

// traceBoundValue emits EvBoundTightened for an explicit old → new
// transition — the parallel engine's successful CAS tightenings, where
// the atomic itself reports the displaced value.
func (j *join) traceBoundValue(old, to float64, src obs.BoundSource) {
	if j.span == nil {
		return
	}
	j.span.Emit(obs.Event{Kind: obs.EvBoundTightened, Old: old, New: to, Source: src})
}

// traceHighWater emits EvHeapHighWater after the pair heap (or parallel
// frontier) reached a new maximum length n.
func (j *join) traceHighWater(n int) {
	if j.span == nil {
		return
	}
	j.span.Emit(obs.Event{Kind: obs.EvHeapHighWater, N: int64(n)})
}

// traceSweepPruned emits EvLeafSweepPruned for one plane-sweep leaf scan;
// skipped is the number of point pairs the sweep never evaluated relative
// to the brute all-pairs scan.
func (j *join) traceSweepPruned(skipped int64) {
	if j.span == nil {
		return
	}
	j.span.Emit(obs.Event{Kind: obs.EvLeafSweepPruned, N: skipped})
}

// traceWorkerSteal emits EvWorkerSteal after a parallel worker claimed a
// batch of n node pairs from the shared frontier.
func (j *join) traceWorkerSteal(worker int32, n int) {
	if j.span == nil {
		return
	}
	j.span.Emit(obs.Event{Kind: obs.EvWorkerSteal, Worker: worker, N: int64(n)})
}

// traceQueryEnd closes the span with the final effective bound and the
// result count (or the error).
func (j *join) traceQueryEnd(results int, err error) {
	if j.span == nil {
		return
	}
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	j.span.End(j.T(), results, msg)
}
