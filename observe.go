package cpq

import (
	"io"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the public observability surface: tracers and the query
// option that attaches one (the EXPLAIN capture is in explain.go).
// Everything is a thin alias over internal/obs, the stdlib-only layer the
// engine emits into (see DESIGN.md §9).

// Tracer consumes per-query trace events. Implementations must be safe
// for concurrent use: parallel HEAP workers emit from many goroutines.
type Tracer = obs.Tracer

// TraceEvent is one typed trace record.
type TraceEvent = obs.Event

// TraceEventKind identifies the type of a trace event.
type TraceEventKind = obs.EventKind

// The event taxonomy (see DESIGN.md §9 for field semantics).
const (
	EvQueryStart      = obs.EvQueryStart
	EvQueryEnd        = obs.EvQueryEnd
	EvNodeExpanded    = obs.EvNodeExpanded
	EvBoundTightened  = obs.EvBoundTightened
	EvHeapHighWater   = obs.EvHeapHighWater
	EvLeafSweepPruned = obs.EvLeafSweepPruned
	EvCacheHit        = obs.EvCacheHit
	EvCacheMiss       = obs.EvCacheMiss
	EvPoolEvict       = obs.EvPoolEvict
)

// BoundSource names the pruning rule behind a bound_tightened event.
type BoundSource = obs.BoundSource

// JSONLTracer is a Tracer writing one JSON object per event.
type JSONLTracer = obs.JSONLWriter

// NewJSONLTracer returns a tracer writing JSON lines to w; call Err when
// done to flush and collect the first write error.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLWriter(w) }

// WithTracer attaches a tracer to the query: it receives a span of typed
// events (node expansions, bound tightenings, heap high-water marks, leaf
// sweeps). The default nil tracer is free: every emission site in
// the engine hides behind one nil check and allocates nothing.
// SemiClosestPairs and WithinDistance ignore it.
func WithTracer(tr Tracer) QueryOption {
	return func(o *core.Options) { observer(o).Tracer = tr }
}

// observer returns the query's observer, allocated on first use.
func observer(o *core.Options) *core.Observer {
	if o.Observe == nil {
		o.Observe = new(core.Observer)
	}
	return o.Observe
}
