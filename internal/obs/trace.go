// Package obs is the engine's observability layer: a stdlib-only metrics
// registry with Prometheus-text and expvar exposition (metrics.go,
// expose.go), a query tracer with typed events (this file), and the
// standard consumers — a JSONL trace writer (jsonl.go) and an aggregating
// slow-query log (slowlog.go).
//
// The package sits below every engine layer (it imports only the standard
// library), so internal/storage, internal/rtree and internal/core can all
// emit events. Emission follows one discipline, enforced by the cpqlint
// obshooks check: hot-path code never calls a Tracer or Span method
// directly; it goes through a tiny nil-guarded helper, so a disabled
// tracer costs one pointer comparison and zero allocations.
package obs

import (
	"sync/atomic"
	"time"
)

// EventKind identifies the type of a trace event.
type EventKind uint8

// The event taxonomy (DESIGN.md §9). Query-span events carry the owning
// span's id; tree- and pool-level events (cache lookups, evictions) are
// emitted outside any span and carry span id 0.
const (
	// EvQueryStart opens a query span. Label describes the query
	// (algorithm, K, tie strategy).
	EvQueryStart EventKind = iota
	// EvQueryEnd closes a query span. New is the final pruning bound
	// (metric key, i.e. squared distance under L2), N the result count,
	// and Label the error text for failed queries.
	EvQueryEnd
	// EvNodeExpanded records one processed node pair (a recursive call or
	// a heap pop that reads two nodes). Level and Level2 are the pair's
	// levels, New its MINMINDIST key, Worker the parallel worker id (0
	// when sequential).
	EvNodeExpanded
	// EvBoundTightened records a strict decrease of the effective pruning
	// bound T. Old and New are metric keys; Source tells which rule
	// tightened.
	EvBoundTightened
	// EvHeapHighWater records a new high-water mark of the HEAP
	// algorithm's pair heap; N is the new queue length.
	EvHeapHighWater
	// EvLeafSweepPruned records one plane-sweep leaf scan; N is the
	// number of point pairs the sweep skipped relative to the brute
	// all-pairs scan.
	EvLeafSweepPruned
	// EvCacheHit and EvCacheMiss record decoded-node cache lookups in
	// rtree.ReadNode; N is the page id.
	EvCacheHit
	EvCacheMiss
	// EvWorkerSteal records a parallel worker claiming a batch from the
	// shared frontier; Worker is the worker id, N the batch size.
	EvWorkerSteal
	// EvPoolEvict records a buffer-pool page eviction; N is the page id.
	EvPoolEvict
	// EvShardPlan records the shard executor planning its work list; N is
	// the number of shard pairs planned (non-empty tile products).
	EvShardPlan
	// EvShardPruned records a shard pair skipped because the MINMINDIST
	// between its tile MBRs exceeded the broadcast bound at dispatch time;
	// N encodes the pair as shardA*tiles + shardB, New its MINMINDIST key.
	EvShardPruned
	// EvShardJoin records one dispatched shard-pair join; N encodes the
	// pair as shardA*tiles + shardB, New the broadcast bound at dispatch,
	// Worker the executor worker id.
	EvShardJoin

	// evKindCount counts the declared event kinds. Keep it the last
	// member of this block: the exhaustiveness test iterates [0,
	// evKindCount) and fails the build of any PR that adds a kind without
	// a String name and a JSONL encoding.
	evKindCount
)

// String implements fmt.Stringer with stable lowercase names (the JSONL
// writer uses them as the "kind" field).
func (k EventKind) String() string {
	switch k {
	case EvQueryStart:
		return "query_start"
	case EvQueryEnd:
		return "query_end"
	case EvNodeExpanded:
		return "node_expanded"
	case EvBoundTightened:
		return "bound_tightened"
	case EvHeapHighWater:
		return "heap_high_water"
	case EvLeafSweepPruned:
		return "leaf_sweep_pruned"
	case EvCacheHit:
		return "cache_hit"
	case EvCacheMiss:
		return "cache_miss"
	case EvWorkerSteal:
		return "worker_steal"
	case EvPoolEvict:
		return "pool_evict"
	case EvShardPlan:
		return "shard_plan"
	case EvShardPruned:
		return "shard_pruned"
	case EvShardJoin:
		return "shard_join"
	default:
		return "unknown"
	}
}

// BoundSource tells which pruning rule tightened the bound in an
// EvBoundTightened event.
type BoundSource uint8

const (
	// SourceNone is the zero value (no source applies).
	SourceNone BoundSource = iota
	// SourceMinMax is Inequality 2: the MINMAXDIST of a generated
	// sub-pair bounds the closest distance (K = 1).
	SourceMinMax
	// SourceMaxMax is the technical report's K > 1 rule: the MAXMAXDIST
	// prefix guaranteeing K enclosed point pairs.
	SourceMaxMax
	// SourceKHeap is the K-heap threshold: the K-th smallest distance
	// found so far, after a leaf scan accepted pairs.
	SourceKHeap
	// SourceMerge is the parallel engine publishing a worker's local
	// K-heap into the global one.
	SourceMerge
)

// String implements fmt.Stringer.
func (s BoundSource) String() string {
	switch s {
	case SourceMinMax:
		return "minmax"
	case SourceMaxMax:
		return "maxmax"
	case SourceKHeap:
		return "kheap"
	case SourceMerge:
		return "merge"
	default:
		return "none"
	}
}

// Event is one typed trace record. It is a flat value (no pointers beyond
// the Label string) so emitting an event allocates nothing; the field set
// is a union over kinds, documented on the EventKind constants.
type Event struct {
	Kind EventKind
	// Span is the owning query span's id, 0 for tree/pool-level events.
	Span uint64
	// Trace is the distributed trace id the owning span belongs to (the
	// root span's id), 0 for spanless events. Parent is the id of the
	// span this one was started from (StartSpanFrom), 0 for root spans.
	// Together they let a collector rebuild the span tree of a sharded
	// query even when shard joins ran on other nodes.
	Trace, Parent uint64
	// Seq is the event's sequence number within its span (1-based), 0
	// for spanless events.
	Seq uint64
	// Nanos is the time since the span started, 0 for spanless events.
	Nanos int64
	// Level and Level2 are the node levels of a NodeExpanded pair.
	Level, Level2 int32
	// Worker is the parallel worker id (0 in sequential mode).
	Worker int32
	// Source tells which rule tightened the bound (EvBoundTightened).
	Source BoundSource
	// Old and New carry bound values as metric keys (squared distances
	// under L2); New doubles as the MINMINDIST key of an expanded pair.
	Old, New float64
	// N is a count or id, per kind.
	N int64
	// Label annotates span starts (query description) and ends (error
	// text, empty on success).
	Label string
}

// Tracer consumes trace events. Implementations must be safe for
// concurrent use: parallel HEAP workers emit from many goroutines.
//
// Engine code does not call Event directly on a possibly-nil tracer —
// every emission site sits behind a nil-guarded helper (the cpqlint
// obshooks check enforces this), so tracing disabled costs one branch.
type Tracer interface {
	Event(e Event)
}

// spanIDs issues process-unique span ids.
var spanIDs atomic.Uint64

// TraceContext identifies one span's position in a trace: the trace id
// shared by every span of the query and the span's own id. The shard
// executor hands its query span's context to every shard join
// (core.Options.Trace) so the joins start child spans under the same trace
// id; being two plain integers, it could cross a process boundary as well.
// The zero value means "no parent": StartSpanFrom then opens a fresh root
// trace, so code that never propagates context behaves exactly as before.
type TraceContext struct {
	// TraceID is the id shared by every span of one query (the root
	// span's id); 0 when no trace is active.
	TraceID uint64
	// SpanID is the id of the span this context describes; a span started
	// from the context records it as its parent.
	SpanID uint64
}

// Span stamps one query's events with a shared id, a sequence number and
// a relative timestamp. A nil *Span is the disabled tracer: every method
// is a cheap no-op, so call sites guard on nil once and pay nothing more.
type Span struct {
	id     uint64
	trace  uint64
	parent uint64
	tr     Tracer
	start  time.Time
	seq    atomic.Uint64
}

// StartSpan opens a root span on tr and emits EvQueryStart with the given
// label. A nil tr returns a nil span, on which every method no-ops.
func StartSpan(tr Tracer, label string) *Span {
	return StartSpanFrom(tr, TraceContext{}, label)
}

// StartSpanFrom opens a span under the given parent context: the new span
// inherits the parent's trace id and records the parent's span id, so a
// collector can rebuild the tree from the EvQueryStart events alone. A
// zero parent opens a fresh root trace (the span's own id becomes the
// trace id), which makes StartSpanFrom(tr, TraceContext{}, l) identical
// to StartSpan(tr, l). A nil tr returns a nil span.
func StartSpanFrom(tr Tracer, parent TraceContext, label string) *Span {
	if tr == nil {
		return nil
	}
	s := &Span{id: spanIDs.Add(1), parent: parent.SpanID, tr: tr, start: time.Now()}
	s.trace = parent.TraceID
	if s.trace == 0 {
		s.trace = s.id
	}
	s.Emit(Event{Kind: EvQueryStart, Label: label})
	return s
}

// Context returns the span's trace context, the value to propagate to
// child spans (possibly across a process boundary). Nil-safe: a nil span
// returns the zero context, under which children open fresh root traces.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.trace, SpanID: s.id}
}

// Enabled reports whether events reach a tracer.
func (s *Span) Enabled() bool { return s != nil }

// Emit stamps e with the span's id, next sequence number and relative
// time, and forwards it to the tracer. No-op on a nil span.
func (s *Span) Emit(e Event) {
	if s == nil {
		return
	}
	e.Span = s.id
	e.Trace = s.trace
	e.Parent = s.parent
	e.Seq = s.seq.Add(1)
	e.Nanos = time.Since(s.start).Nanoseconds()
	s.tr.Event(e)
}

// End emits EvQueryEnd with the final pruning bound (a metric key), the
// result count and the error text (empty on success). No-op on nil.
func (s *Span) End(finalBound float64, results int, errText string) {
	if s == nil {
		return
	}
	s.Emit(Event{Kind: EvQueryEnd, New: finalBound, N: int64(results), Label: errText})
}
