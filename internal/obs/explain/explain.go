// Package explain is the engine's per-query EXPLAIN/ANALYZE subsystem: a
// Capture that records one query's plan (algorithm, K, workers) and
// execution (phase wall breakdown, per-shard-pair dispatch decisions of
// the shard executor, bound-tightening trajectory, span tree, full work
// counters), and renders the snapshot as a text tree or canonical JSON.
//
// The package sits beside the rest of internal/obs: it imports only obs
// and the standard library, so core, shard and the facade can all feed it
// without cycles. A Capture doubles as an obs.Tracer, so one value both
// collects structured rows from the gather side and rebuilds the span tree
// from the trace stream.
//
// Everything is nil-safe in the PR 5 disabled-hook discipline: every
// method on a nil *Capture returns immediately, so explain-off query paths
// pay one pointer comparison per capture point and allocate nothing
// (enforced by the zero-alloc tests and the cpqlint obshooks check).
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
	// Phases is the wall breakdown in execution order (partition, build,
	// dispatch, join, merge for a sharded run).
	Phases []Phase `json:"phases,omitempty"`
	// ShardPairs has one row per planned shard pair, in decision order:
	// every pair the executor planned is either pruned here or joined
	// here, so the rows sum to the executor's planned/pruned counts.
	ShardPairs []ShardPair `json:"shard_pairs,omitempty"`
	// Shards attributes the work counters per shard (the same rows fed to
	// the cpq_shard_* metrics).
	Shards []ShardStat `json:"shards,omitempty"`
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
	// Spans is the query's span forest: the gather-side query span with
	// its shard-join children.
	Spans []SpanNode `json:"spans,omitempty"`
}

// Phase is one named phase's wall time.
type Phase struct {
	Name       string `json:"name"`
	DurationNS int64  `json:"duration_ns"`
}

// ShardPair is one planned shard-pair join and what became of it.
type ShardPair struct {
	// A and B are the two shard ids (A-side tile, B-side tile).
	A int `json:"a"`
	B int `json:"b"`
	// Status is "joined" or "pruned".
	Status string `json:"status"`
	// MinMinDist is the MINMINDIST key between the two tile MBRs; Bound is
	// the broadcast bound at decision time (Unbounded when no bound had
	// been established yet).
	MinMinDist float64 `json:"minmindist"`
	Bound      float64 `json:"bound"`
	// Worker is the executor worker that ran a joined pair.
	Worker int `json:"worker,omitempty"`
	// DurationNS, Results, Accesses, NodePairs and PointPairs describe a
	// joined pair's work (all zero for pruned pairs).
	DurationNS int64 `json:"duration_ns,omitempty"`
	Results    int   `json:"results,omitempty"`
	Accesses   int64 `json:"accesses,omitempty"`
	NodePairs  int64 `json:"node_pairs,omitempty"`
	PointPairs int64 `json:"point_pairs,omitempty"`
}

// Statuses for ShardPair.Status.
const (
	StatusJoined = "joined"
	StatusPruned = "pruned"
)

// ShardStat attributes executor work to one shard (mirrors
// obs.ShardRecord, which feeds the labeled metrics).
type ShardStat struct {
	Shard   int   `json:"shard"`
	Planned int64 `json:"planned"`
	Pruned  int64 `json:"pruned"`
	Joined  int64 `json:"joined"`
	// Accesses is the shard's buffer-pool miss delta; CacheHits and
	// CacheMisses the decoded-node cache deltas.
	Accesses    int64 `json:"accesses"`
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
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
	// Span is the emitting span's id (a shard join or the query span).
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

// SpanNode is one span of the query's trace, with its children.
type SpanNode struct {
	// Span is the span's id, Trace the distributed trace id it belongs
	// to, Parent the id of the span it was started from (0 for roots).
	Span   uint64 `json:"span"`
	Trace  uint64 `json:"trace"`
	Parent uint64 `json:"parent,omitempty"`
	// Label is the span's EvQueryStart label.
	Label string `json:"label"`
	// DurationNS is start-to-end wall time (0 if the span never ended).
	DurationNS int64 `json:"duration_ns"`
	// Events counts the span's own events (children excluded).
	Events int64 `json:"events"`
	// FinalBound is the final pruning bound at EvQueryEnd (Unbounded when
	// never tightened below +Inf); Results the span's result count; Err
	// the error text, empty on success.
	FinalBound float64    `json:"final_bound"`
	Results    int64      `json:"results"`
	Err        string     `json:"err,omitempty"`
	Children   []SpanNode `json:"children,omitempty"`
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
