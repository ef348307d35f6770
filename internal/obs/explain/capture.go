package explain

import (
	"sort"
	"sync"

	"repro/internal/obs"
)

// Capture collects one query's EXPLAIN/ANALYZE data. It implements
// obs.Tracer, so attaching it as (or teeing it into) the query's tracer
// rebuilds the span tree and bound trajectory from the trace stream, while
// the gather-side code feeds it structured rows (plan, phases, shard-pair
// decisions) through the mutators.
//
// All methods are safe for concurrent use (parallel workers emit trace
// events) and nil-safe: every method on a nil *Capture returns
// immediately without touching its arguments, so capture points in the
// engine cost one pointer comparison when explain is off.
type Capture struct {
	mu     sync.Mutex
	inner  obs.Tracer // optional tee (the user's own tracer)
	plan   Plan
	phases []Phase
	pairs  []ShardPair
	shards []ShardStat
	bounds []BoundStep
	counts [int(obsKindCount)]int64
	spans  map[uint64]*spanState
	order  []uint64 // span ids in first-seen order
	dur    int64
	nres   int
	kth    float64
	stats  Stats
}

// obsKindCount mirrors the obs package's declared-kind count; the
// exhaustiveness test there pins it, and capturing an out-of-range kind
// just lands in the last bucket of a slightly larger array.
const obsKindCount = 32

type spanState struct {
	node   SpanNode
	events int64
}

// New returns an empty capture. inner, when non-nil, receives every event
// the capture sees (tee), so a user-supplied JSONL tracer keeps working
// under -explain.
func New(inner obs.Tracer) *Capture {
	return &Capture{inner: inner, spans: make(map[uint64]*spanState)}
}

// Enabled reports whether the capture collects (false for nil).
func (c *Capture) Enabled() bool { return c != nil }

// Event implements obs.Tracer: it maintains the span forest, the bound
// trajectory and the per-kind counts, and forwards to the tee.
func (c *Capture) Event(e obs.Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	k := int(e.Kind)
	if k >= obsKindCount {
		k = obsKindCount - 1
	}
	c.counts[k]++
	switch e.Kind {
	case obs.EvQueryStart:
		if _, ok := c.spans[e.Span]; !ok {
			c.spans[e.Span] = &spanState{node: SpanNode{
				Span: e.Span, Trace: e.Trace, Parent: e.Parent,
				Label: e.Label, FinalBound: Unbounded,
			}}
			c.order = append(c.order, e.Span)
		}
	case obs.EvQueryEnd:
		if s, ok := c.spans[e.Span]; ok {
			s.node.DurationNS = e.Nanos
			s.node.FinalBound = Key(e.New)
			s.node.Results = e.N
			s.node.Err = e.Label
		}
	case obs.EvBoundTightened:
		c.bounds = append(c.bounds, BoundStep{
			Nanos: e.Nanos, Old: Key(e.Old), New: Key(e.New),
			Source: e.Source.String(), Span: e.Span,
		})
	}
	if s, ok := c.spans[e.Span]; ok {
		s.events++
	}
	inner := c.inner
	c.mu.Unlock()
	if inner != nil {
		inner.Event(e)
	}
}

// SetTee routes every event the capture sees to tr as well, so a
// user-supplied tracer keeps working when the capture takes the tracer
// slot. Overwrites a tee given to New; call before the query starts.
func (c *Capture) SetTee(tr obs.Tracer) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.inner = tr
	c.mu.Unlock()
}

// SetPlan records the query plan. Call once from the gather side before
// (or after — the capture does not order-check) execution.
func (c *Capture) SetPlan(p Plan) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.plan = p
	c.mu.Unlock()
}

// SetPlanShards records the sharded layout on the plan — called once the
// partitioner has fixed the tile boundaries, separately from SetPlan
// because the facade knows the plan before the tiles exist.
func (c *Capture) SetPlanShards(shards int, tiles []Tile) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.plan.Shards = shards
	c.plan.Tiles = tiles
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

// AddShardPair records one planned shard pair's fate (joined or pruned).
// Safe to call from executor workers.
func (c *Capture) AddShardPair(p ShardPair) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.pairs = append(c.pairs, p)
	c.mu.Unlock()
}

// SetShards records the per-shard work attribution rows.
func (c *Capture) SetShards(rows []ShardStat) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.shards = rows
	c.mu.Unlock()
}

// SetResult records the query's totals: wall time, aggregated counters,
// result count and the K-th distance.
func (c *Capture) SetResult(durNS int64, stats Stats, results int, kth float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.dur = durNS
	c.stats = stats
	c.nres = results
	c.kth = Key(kth)
	c.mu.Unlock()
}

// Snapshot assembles the explain report collected so far. The span forest
// is rebuilt from the trace stream: children attach under their parent
// span when it was captured locally; roots (and orphans whose parent ran
// elsewhere) surface at the top level, sorted by first appearance.
func (c *Capture) Snapshot() *Explain {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	e := &Explain{Plan: c.plan}
	e.Exec = Exec{
		DurationNS:  c.dur,
		Phases:      append([]Phase(nil), c.phases...),
		ShardPairs:  sortedPairs(c.pairs),
		Shards:      append([]ShardStat(nil), c.shards...),
		Bounds:      append([]BoundStep(nil), c.bounds...),
		Stats:       c.stats,
		Results:     c.nres,
		KthDistance: c.kth,
	}
	for k, n := range c.counts {
		if n > 0 {
			e.Exec.Events = append(e.Exec.Events, KindCount{Kind: obs.EventKind(k).String(), N: n})
		}
	}
	e.Exec.Spans = c.buildForest()
	return e
}

// sortedPairs orders shard-pair rows deterministically (by A then B):
// workers append concurrently, so arrival order varies run to run while
// the canonical JSON must not.
func sortedPairs(pairs []ShardPair) []ShardPair {
	out := append([]ShardPair(nil), pairs...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// buildForest links captured spans into trees by parent id. Caller holds
// c.mu.
func (c *Capture) buildForest() []SpanNode {
	if len(c.order) == 0 {
		return nil
	}
	// Group child ids under their parents, preserving first-seen order.
	children := make(map[uint64][]uint64)
	var roots []uint64
	for _, id := range c.order {
		s := c.spans[id]
		if p := s.node.Parent; p != 0 && c.spans[p] != nil {
			children[p] = append(children[p], id)
		} else {
			roots = append(roots, id)
		}
	}
	var build func(id uint64) SpanNode
	build = func(id uint64) SpanNode {
		s := c.spans[id]
		n := s.node
		n.Events = s.events
		for _, cid := range children[id] {
			n.Children = append(n.Children, build(cid))
		}
		return n
	}
	out := make([]SpanNode, 0, len(roots))
	for _, id := range roots {
		out = append(out, build(id))
	}
	return out
}
