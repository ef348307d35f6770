// Package engine is a lint fixture for the boundmono check: the shared
// pruning bound only tightens, so outside the bound type's own methods
// every write must go through tighten, the raw bits are off limits, and
// store is legal only for the +Inf initialization.
package engine

import (
	"math"
	"sync/atomic"
)

// SharedBound mirrors the engine's tighten-only bound.
type SharedBound struct {
	bits atomic.Uint64
}

func (a *SharedBound) store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *SharedBound) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *SharedBound) tighten(v float64) {
	for {
		old := a.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

type searcher struct {
	bound SharedBound
}

// resetToZero stores a non-Inf constant: every candidate pair would be
// pruned afterwards.
func (s *searcher) resetToZero() {
	s.bound.store(0)
}

// resetToSnapshot stores a value that reaches the call from an arbitrary
// computation, which can widen the bound.
func (s *searcher) resetToSnapshot() {
	v := s.bound.load() * 2
	s.bound.store(v)
}

// pokeBits bypasses the CAS-min discipline entirely.
func (s *searcher) pokeBits() {
	s.bound.bits.Store(0)
}

// overwrite replaces the whole value, resetting the bound to zero.
func (s *searcher) overwrite() {
	s.bound = SharedBound{}
}

// initialize is the one legal store: +Inf before any worker runs.
func (s *searcher) initialize() {
	s.bound.store(math.Inf(1))
}

// initializeViaLocal resolves through a reaching definition to the same
// +Inf call.
func (s *searcher) initializeViaLocal() {
	inf := math.Inf(1)
	s.bound.store(inf)
}

// shrink is the sanctioned write path.
func (s *searcher) shrink(candidate float64) {
	if candidate < s.bound.load() {
		s.bound.tighten(candidate)
	}
}

// suppressed documents a deliberate reset between query batches.
func (s *searcher) suppressed() {
	//lint:ignore boundmono fixture: batch boundary resets are serialized
	s.bound.store(0)
}

type coordinator struct {
	shared *SharedBound
}

// inject hands the shared bound pointer to a collaborator; pointer
// assignment is injection, not a reset, and is not flagged.
func (c *coordinator) inject(b *SharedBound) {
	c.shared = b
}
