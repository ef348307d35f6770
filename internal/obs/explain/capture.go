package explain

import (
	"sync"
	"time"
)

// Capture collects one query's EXPLAIN/ANALYZE data: the engine records
// the plan, each tightening of the pruning bound and the totals through
// its methods, all timed from Begin. The zero value is an empty capture.
//
// All methods are safe for concurrent use (parallel workers record bound
// steps) and nil-safe: every method on a nil *Capture returns
// immediately without touching its arguments, so capture points in the
// engine cost one pointer comparison when explain is off.
type Capture struct {
	mu     sync.Mutex
	start  time.Time
	plan   Plan
	phases []Phase
	bounds []BoundStep
	dur    int64
	nres   int
	kth    float64
	stats  Stats
}

// Enabled reports whether the capture collects (false for nil).
func (c *Capture) Enabled() bool { return c != nil }

// Begin records the query plan and starts the query's clock.
func (c *Capture) Begin(p Plan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.plan, c.start = p, time.Now()
	c.mu.Unlock()
}

// Bound appends one strict decrease of the pruning bound, from old to new
// (metric keys), stamped with the time since Begin; source names the
// rule.
func (c *Capture) Bound(old, new float64, source string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.bounds = append(c.bounds, BoundStep{
		Nanos: time.Since(c.start).Nanoseconds(), Old: Key(old), New: Key(new), Source: source,
	})
	c.mu.Unlock()
}

// Phase appends one named phase's wall time to the execution breakdown.
func (c *Capture) Phase(name string, ns int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.phases = append(c.phases, Phase{Name: name, DurationNS: ns})
	c.mu.Unlock()
}

// Finish records the query's totals: its wall time since Begin, which is
// also its one "join" phase, the aggregated counters, the result count
// and the K-th distance.
func (c *Capture) Finish(stats Stats, results int, kth float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.dur = time.Since(c.start).Nanoseconds()
	c.phases = append(c.phases, Phase{Name: "join", DurationNS: c.dur})
	c.stats = stats
	c.nres = results
	c.kth = Key(kth)
	c.mu.Unlock()
}

// Snapshot assembles the explain report collected so far.
func (c *Capture) Snapshot() *Explain {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return &Explain{Plan: c.plan, Exec: Exec{
		DurationNS:  c.dur,
		Phases:      append([]Phase(nil), c.phases...),
		Bounds:      append([]BoundStep(nil), c.bounds...),
		Stats:       c.stats,
		Results:     c.nres,
		KthDistance: c.kth,
	}}
}
