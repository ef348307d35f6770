package cpq

import (
	"io"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the public observability surface: tracers, the metrics
// registry, the slow-query log, and the query options that attach them.
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

// Metrics is a registry of counters, gauges and histograms with
// Prometheus-text and expvar exposition.
type Metrics = obs.Metrics

// EngineMetrics is the engine's pre-registered metric set (latency,
// accesses, result distance, cache hit ratio, worker utilization).
type EngineMetrics = obs.EngineMetrics

// SlowQueryLog aggregates per-query cost reports and writes queries
// slower than its threshold as JSON lines.
type SlowQueryLog = obs.SlowQueryLog

// QueryReport is one finished query's cost summary.
type QueryReport = obs.QueryReport

// JSONLTracer is a Tracer writing one JSON object per event.
type JSONLTracer = obs.JSONLWriter

// NewMetrics returns an empty metrics registry. Serve it with
// MetricsHandler or ObservabilityMux; DefaultMetrics returns a shared
// process-wide registry instead.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// DefaultMetrics returns the process-wide registry.
func DefaultMetrics() *Metrics { return obs.Default() }

// NewEngineMetrics registers the engine metric set (cpq_* names) on m and
// returns the handles to pass to WithMetrics.
func NewEngineMetrics(m *Metrics) *EngineMetrics { return obs.NewEngineMetrics(m) }

// NewJSONLTracer returns a tracer writing JSON lines to w; call Err when
// done to flush and collect the first write error.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return obs.NewJSONLWriter(w) }

// NewSlowQueryLog returns a slow-query log: queries at or above threshold
// are written to w (which may be nil to aggregate only) as JSON lines,
// and every query feeds the per-shape aggregates behind Summary.
func NewSlowQueryLog(threshold time.Duration, w io.Writer) *SlowQueryLog {
	return obs.NewSlowQueryLog(threshold, w)
}

// MetricsHandler returns an http.Handler serving m in the Prometheus text
// format (mount it on /metrics).
func MetricsHandler(m *Metrics) http.Handler { return m.Handler() }

// ObservabilityMux returns a mux serving m on /metrics and expvar on
// /debug/vars; withPprof additionally mounts the net/http/pprof handlers
// under /debug/pprof/.
func ObservabilityMux(m *Metrics, withPprof bool) *http.ServeMux {
	return obs.NewServeMux(m, withPprof)
}

// WithTracer attaches a tracer to the query: it receives a span of typed
// events (node expansions, bound tightenings, heap high-water marks, leaf
// sweeps). The default nil tracer is free: every emission site in
// the engine hides behind one nil check and allocates nothing.
// SemiClosestPairs and WithinDistance ignore it.
func WithTracer(tr Tracer) QueryOption {
	return func(o *core.Options) { observer(o).Tracer = tr }
}

// WithMetrics records the query's cost (latency, accesses, K-th distance,
// cache counters, worker utilization) into the given engine metric set at
// completion. Recording happens once per query, never inside the
// traversal. SemiClosestPairs and WithinDistance ignore it.
func WithMetrics(em *EngineMetrics) QueryOption {
	return func(o *core.Options) { observer(o).Metrics = em }
}

// WithSlowQueryLog feeds the query's cost report to the given slow-query
// log: aggregated always, written as a JSON line when the latency meets
// the log's threshold. SemiClosestPairs and WithinDistance ignore it.
func WithSlowQueryLog(l *SlowQueryLog) QueryOption {
	return func(o *core.Options) { observer(o).SlowLog = l }
}

// observer returns the query's observer, allocated on first use.
func observer(o *core.Options) *core.Observer {
	if o.Observe == nil {
		o.Observe = new(core.Observer)
	}
	return o.Observe
}
