// Package explain is the engine's per-query EXPLAIN/ANALYZE subsystem: a
// Capture that records one query's plan (algorithm, K, workers) and
// execution (phase wall breakdown, bound-tightening trajectory, the
// query's span, full work counters), and renders the snapshot as a text
// tree or canonical JSON.
//
// The package sits beside the rest of internal/obs: it imports only obs
// and the standard library, so core, shard and the facade can all feed it
// without cycles. A Capture doubles as an obs.Tracer, so one value both
// collects structured rows from the facade and rebuilds the span and the
// bound trajectory from the trace stream.
//
// Everything is nil-safe in the PR 5 disabled-hook discipline: every
// method on a nil *Capture returns immediately, so explain-off query paths
// pay one pointer comparison per capture point and allocate nothing
// (enforced by the zero-alloc tests).
package explain

import "encoding/json"

// Explain is one query's complete EXPLAIN/ANALYZE snapshot.
//
// The type (and everything it embeds) is built from structs and slices
// only — no maps — so encoding/json renders it with a fixed field order
// and the canonical encoding is byte-stable: Marshal ∘ Unmarshal is the
// identity on the bytes. Non-finite floats never appear (JSON has no Inf);
// the capture maps the engine's +Inf "no bound yet" sentinel to -1, see
// Unbounded.
type Explain struct {
	Plan Plan `json:"plan"`
	Exec Exec `json:"exec"`
}

// Unbounded is the serialized stand-in for the engine's +Inf pruning
// bound ("no bound established yet"): JSON has no Inf, and -1 is
// unambiguous since metric keys are squared distances (>= 0).
const Unbounded = -1

// Plan describes what the query decided to do before doing it.
type Plan struct {
	// Label is the engine's query label (core.QueryLabel), the same string
	// the span and the slow-query log use.
	Label string `json:"label"`
	// Algorithm is the CPQ algorithm's paper abbreviation (HEAP, STD, ...).
	Algorithm string `json:"algorithm"`
	// K is the number of closest pairs requested.
	K int `json:"k"`
	// Workers is the resolved parallel worker count (1 = sequential).
	Workers int `json:"workers"`
}

// Exec describes what actually happened.
type Exec struct {
	// DurationNS is the query's total wall time.
	DurationNS int64 `json:"duration_ns"`
	// Phases is the wall breakdown in execution order (one join phase
	// for a facade query; partition and build for the shard partitioner).
	Phases []Phase `json:"phases,omitempty"`
	// Bounds is the bound-tightening trajectory: every strict decrease of
	// the pruning bound, timestamped relative to its span's start.
	Bounds []BoundStep `json:"bounds,omitempty"`
	// Events counts the trace events per kind over the whole query.
	Events []KindCount `json:"events,omitempty"`
	// Stats are the aggregated work counters (core.Stats).
	Stats Stats `json:"stats"`
	// Results is the number of pairs returned; KthDistance the largest
	// reported distance (0 when no results).
	Results     int     `json:"results"`
	KthDistance float64 `json:"kth_distance"`
	// Spans lists the spans the capture saw, in first-seen order: one for
	// a query, whose parallel workers all emit on the query's span.
	Spans []SpanNode `json:"spans,omitempty"`
}

// Phase is one named phase's wall time.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// BoundStep is one strict decrease of the pruning bound.
type BoundStep struct {
	// Nanos is the time since the emitting span started.
	Nanos int64 `json:"ns"`
	// Old and New are metric keys (squared distances); Old is Unbounded
	// for the first tightening from +Inf.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Source names the pruning rule (obs.BoundSource).
	Source string `json:"source"`
	// Span is the emitting span's id.
	Span uint64 `json:"span"`
}

// KindCount is one event kind's occurrence count.
type KindCount struct {
	Kind string `json:"kind"`
	N    int64  `json:"n"`
}

// Stats is core.Stats in canonical JSON form (explain stays import-free of
// core, which sits above obs in the build graph).
type Stats struct {
	Accesses           int64 `json:"accesses"`
	ReadsP             int64 `json:"reads_p"`
	ReadsQ             int64 `json:"reads_q"`
	BufferHits         int64 `json:"buffer_hits"`
	NodePairsProcessed int64 `json:"node_pairs"`
	SubPairsGenerated  int64 `json:"sub_pairs_generated"`
	SubPairsPruned     int64 `json:"sub_pairs_pruned"`
	PointPairsCompared int64 `json:"point_pairs"`
	MaxQueueSize       int   `json:"max_queue_size"`
	NodeCacheHits      int64 `json:"node_cache_hits"`
	NodeCacheMisses    int64 `json:"node_cache_misses"`
}

// SpanNode is one span of the query's trace.
type SpanNode struct {
	// Span is the span's id.
	Span uint64 `json:"span"`
	// Label is the span's EvQueryStart label.
	Label string `json:"label"`
	// DurationNS is start-to-end wall time (0 if the span never ended).
	DurationNS int64 `json:"duration_ns"`
	// Events counts the span's events.
	Events int64 `json:"events"`
	// FinalBound is the final pruning bound at EvQueryEnd (Unbounded when
	// never tightened below +Inf); Results the span's result count; Err
	// the error text, empty on success.
	FinalBound float64 `json:"final_bound"`
	Results    int64   `json:"results"`
	Err        string  `json:"err,omitempty"`
}

// JSON renders the snapshot in its canonical byte-stable form: fixed field
// order, no maps, no non-finite floats.
func (e *Explain) JSON() ([]byte, error) {
	return json.Marshal(e)
}

// JSONIndent renders the canonical form indented for human consumption.
func (e *Explain) JSONIndent() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

// Key sanitizes a metric key for JSON: non-finite values (the engine's
// +Inf "no bound" sentinel, or a NaN from corrupt input) map to Unbounded.
func Key(v float64) float64 {
	if v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308 {
		return Unbounded
	}
	return v
}
