package core

import (
	"math"
	"testing"

	"repro/internal/obs/explain"
)

// TestDisabledHooksZeroAlloc pins the acceptance criterion that every
// capture point is free on the disabled path: with a nil capture the hook
// set performs zero allocations per call.
func TestDisabledHooksZeroAlloc(t *testing.T) {
	j := &join{kheap: newKHeap(2), bound: math.Inf(1), lastT: math.Inf(1)}
	allocs := testing.AllocsPerRun(1000, func() {
		j.observe(nil, 2, false, 1)
		j.recordBound(srcKHeap)
		j.recordResult(nil, Stats{})
	})
	if allocs != 0 {
		t.Fatalf("disabled hook path allocates %v per op, want 0", allocs)
	}
}

// boundStep is one tightening of a pruning bound as the explain capture
// records it: the displaced value (+Inf for the first), the new one, and
// the rule.
type boundStep struct {
	old, to float64
	src     string
}

// boundSteps returns c's bound trajectory, with the snapshot's Unbounded
// stand-in mapped back to +Inf.
func boundSteps(c *explain.Capture) []boundStep {
	var steps []boundStep
	for _, b := range c.Snapshot().Exec.Bounds {
		old := b.Old
		if old == explain.Unbounded {
			old = math.Inf(1)
		}
		steps = append(steps, boundStep{old, b.New, b.Source})
	}
	return steps
}

// TestBoundTrajectoryReplay is the bound-replay property test over the
// EXPLAIN trajectory: for every algorithm at K = 1 and 10, the first step
// leaves +Inf, each step starts where the previous one ended and strictly
// decreases, and the last one, decoded with the metric, is exactly the
// reported K-th distance. Under four workers each worker records its own
// chain, so the steps interleave: every one still decreases, and none
// undercuts the final K-th key.
func TestBoundTrajectoryReplay(t *testing.T) {
	ps := uniformPoints(7100, 400, 0)
	qs := uniformPoints(7200, 350, 0.3)
	ta := buildTree(t, ps, 256)
	tb := buildTree(t, qs, 256)
	for _, alg := range Algorithms() {
		for _, k := range []int{1, 10} {
			opts := DefaultOptions(alg)
			opts.Explain = new(explain.Capture)
			pairs, _, err := KClosestPairs(ta, tb, k, opts)
			if err != nil {
				t.Fatalf("%v k=%d: %v", alg, k, err)
			}
			steps := boundSteps(opts.Explain)
			if len(steps) == 0 || len(pairs) < k {
				t.Fatalf("%v k=%d: %d bound steps, %d pairs", alg, k, len(steps), len(pairs))
			}
			bound := math.Inf(1)
			for i, s := range steps {
				if s.old != bound || !(s.to < s.old) {
					t.Fatalf("%v k=%d: step %d went %v -> %v, replayed bound is %v", alg, k, i, s.old, s.to, bound)
				}
				bound = s.to
			}
			if kth := opts.Metric.KeyToDist(bound); kth != pairs[len(pairs)-1].Dist {
				t.Errorf("%v k=%d: replayed final bound %v != reported K-th distance %v",
					alg, k, kth, pairs[len(pairs)-1].Dist)
			}
		}
	}
	opts := DefaultOptions(Heap)
	opts.Parallelism = 4
	opts.Explain = new(explain.Capture)
	pairs, _, err := KClosestPairs(ta, tb, 10, opts)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	kth := pairs[len(pairs)-1].Dist
	steps := boundSteps(opts.Explain)
	if len(steps) == 0 {
		t.Fatal("parallel: no bound steps")
	}
	for i, s := range steps {
		if !(s.to < s.old) || opts.Metric.KeyToDist(s.to) < kth {
			t.Fatalf("parallel: step %d went %v -> %v (final K-th distance %v)", i, s.old, s.to, kth)
		}
	}
}
