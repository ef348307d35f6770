// Package bound holds the tighten-only pruning bound that cooperating
// joins share. It is a package of its own so that the bound's bits are
// reachable only through New, Load and Tighten: code outside this
// package cannot store into them, so a raw write that could widen the
// bound and lose results does not compile.
package bound

import (
	"math"
	"sync/atomic"
)

// Shared is a tighten-only pruning bound shared across cooperating joins.
// The shard scatter-gather executor creates one and sets it directly as
// core.Options.SharedBound of every shard-pair join it dispatches, so a
// tight pair found inside one tile immediately prunes the traversal of
// every other.
//
// The value is a distance key (squared under L2), the same unit as the
// engine's internal bound T. Only sound global upper bounds may be
// published: the K-heap threshold of a full heap (K real point pairs at
// most that far apart exist) and the auxiliary MINMAXDIST/MAXMAXDIST
// bound (Inequalities 1–2 guarantee the required point pairs exist).
// Both remain sound across task and shard boundaries because every point
// pair of a subtree or shard product is also a point pair of the global
// product.
//
// The key is stored as its IEEE-754 bit pattern: non-negative doubles and
// +Inf order like their bits, so a compare-and-swap on the bits is a
// numeric CAS-min. Load and Tighten are nil-safe: a nil *Shared loads
// +Inf and ignores tightens, so a self-contained sequential query pays one
// nil check and nothing else. The zero value loads 0 and prunes
// everything; New makes it usable.
type Shared struct {
	bits atomic.Uint64
}

// New returns a shared bound initialized to +Inf (no pruning information
// yet).
func New() *Shared {
	s := &Shared{}
	s.bits.Store(math.Float64bits(math.Inf(1)))
	return s
}

// Load returns the current bound (squared); +Inf on a nil receiver or
// when no tighten has landed yet.
func (s *Shared) Load() float64 {
	if s == nil {
		return math.Inf(1)
	}
	return math.Float64frombits(s.bits.Load())
}

// Tighten lowers the bound to v if v is smaller (CAS loop; a lost race
// retries against the new, smaller value). It returns the displaced value
// and whether v replaced it — the trace layer turns successful tightenings
// into EvBoundTightened events. A nil receiver ignores the call.
func (s *Shared) Tighten(v float64) (old float64, ok bool) {
	if s == nil {
		return math.Inf(1), false
	}
	for {
		bits := s.bits.Load()
		old = math.Float64frombits(bits)
		if v >= old {
			return old, false
		}
		if s.bits.CompareAndSwap(bits, math.Float64bits(v)) {
			return old, true
		}
	}
}
