package shard

import "repro/internal/core"

// BoundBroadcaster shares one tighten-only global pruning bound across
// all in-flight shard-pair joins. A tight pair found in one tile
// immediately prunes node pairs — and whole shard pairs still waiting
// for dispatch — in every other tile.
//
// The broadcast protocol (DESIGN.md §13) has two verbs:
//
//   - publish: a shard join that tightened its local bound (a full
//     K-heap threshold or a MINMAXDIST/MAXMAXDIST aux bound) offers the
//     new value; the broadcaster keeps the minimum. Both are sound
//     global upper bounds — every point pair a shard join certifies is
//     a point pair of the global product — so sharing them never
//     excludes a true top-K pair.
//   - observe: joins fold the broadcast value into their effective
//     bound T on every pruning decision, and the executor compares each
//     still-queued shard pair's tile-level MINMINDIST against it at
//     dispatch time.
//
// Both verbs are one atomic CAS-min (core.SharedBound): idempotent and
// commutative, so a late or re-ordered publication only delays pruning,
// never breaks correctness.
type BoundBroadcaster struct {
	bound *core.SharedBound
}

// NewBoundBroadcaster returns a broadcaster with the bound at +Inf
// (nothing known yet).
func NewBoundBroadcaster() *BoundBroadcaster {
	return &BoundBroadcaster{bound: core.NewSharedBound()}
}

// Bound exposes the shared bound for injection into a shard join's
// core.Options.SharedBound; the join then publishes and observes it on
// the engine's existing bound-maintenance sites.
func (b *BoundBroadcaster) Bound() *core.SharedBound { return b.bound }

// Load returns the current global bound as a metric key (squared
// distance under L2), +Inf while nothing has been published.
func (b *BoundBroadcaster) Load() float64 { return b.bound.Load() }
