package shard

import (
	"fmt"

	"repro/internal/obs"
)

// The emit helpers follow the engine's obshooks discipline (the cpqlint
// check now covers this package): every tracer touch sits behind a
// nil-guarded helper so a disabled tracer costs one branch per event and
// zero allocations.

// startExecSpan opens the executor's query span as a child of the
// caller's trace context (nil tracer → nil span, on which every emit
// no-ops). With a zero parent the span opens a fresh root trace.
func startExecSpan(tr obs.Tracer, parent obs.TraceContext, tiles, k int) *obs.Span {
	if tr == nil {
		return nil
	}
	return obs.StartSpanFrom(tr, parent, fmt.Sprintf("shard-exec tiles=%d k=%d", tiles, k))
}

func traceShardPlan(sp *obs.Span, planned int) {
	if sp == nil {
		return
	}
	sp.Emit(obs.Event{Kind: obs.EvShardPlan, N: int64(planned)})
}

func traceShardPruned(sp *obs.Span, a, b, tiles int, minmin float64) {
	if sp == nil {
		return
	}
	sp.Emit(obs.Event{Kind: obs.EvShardPruned, N: int64(a*tiles + b), New: minmin})
}

func traceShardJoin(sp *obs.Span, a, b, tiles int, bound float64, worker int32) {
	if sp == nil {
		return
	}
	sp.Emit(obs.Event{Kind: obs.EvShardJoin, N: int64(a*tiles + b), New: bound, Worker: worker})
}

// traceExecEnd closes the executor span.
func traceExecEnd(sp *obs.Span, finalBound float64, results int, errText string) {
	if sp == nil {
		return
	}
	sp.End(finalBound, results, errText)
}
