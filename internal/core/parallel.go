package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// This file implements the parallel execution mode of the HEAP algorithm
// (Options.Parallelism > 1). The paper's pruning rules CP1-CP5 are
// order-independent once a sound (over-estimating) upper bound T on the
// K-th closest distance is maintained, so node pairs can be processed by
// many workers concurrently:
//
//   - A shared frontier replaces the sequential pair heap: workers pop
//     small batches of the globally best pairs under one lock acquisition
//     and push surviving sub-pairs back in one acquisition, which keeps
//     the best-first order approximately intact while cutting lock
//     traffic by the batch size.
//   - The pruning bound T lives in a single atomic as a squared distance
//     and is only ever lowered (CAS tighten-only). Both sources of the
//     sequential T — the auxiliary MINMAXDIST/MAXMAXDIST bound and the
//     global K-heap threshold — fold into it. A worker may read a stale
//     (larger) T, which can only make it prune less, never incorrectly.
//   - Each worker accumulates leaf results in a local K-heap and merges
//     it into the global K-heap under a single lock, but only when the
//     local heap holds a pair that beats the published bound (or the
//     global heap is not yet full, in which case T is still +Inf from the
//     K-heap's perspective and any accepted pair qualifies).
//
// A pair is discarded only when its MINMINDIST exceeds T, and T is at all
// times an upper bound on the final K-th distance; hence the parallel
// mode returns exactly the same K distances as the sequential algorithms
// (the pair set may be a different valid instance under exact distance
// ties, as the paper already allows). Disk accesses stay exactly counted
// by the pool's atomic counters, but their number may vary slightly from
// run to run because the global processing order depends on scheduling.

// parBatch is the number of node pairs a worker claims per frontier lock
// acquisition. Larger batches cut lock traffic but deviate further from
// strict best-first order (costing some extra node reads).
const parBatch = 8

// parHeap is the shared state of one parallel HEAP run.
type parHeap struct {
	j *join

	// bound is the published pruning bound T (squared), tighten-only.
	bound atomicMinFloat64

	// gmu guards merging worker-local K-heaps into j.kheap.
	gmu sync.Mutex

	// mu guards the frontier heap, the busy-worker count and the first
	// error; cond signals pushed work, errors and idleness. The frontier is
	// the queue of the join's scratch, like the sequential driver's.
	mu       sync.Mutex
	cond     sync.Cond
	frontier *pairHeap
	busy     int
	err      error

	// timed enables per-batch busy-time accounting (only when the query
	// records metrics; the disabled path takes no timestamps at all).
	timed     bool
	busyNanos atomic.Int64
}

// atomicMinFloat64 is a float64 that can only decrease, stored as ordered
// bits for lock-free CAS. All values used here are non-negative squared
// distances (or +Inf), for which the IEEE-754 bit patterns order like the
// values themselves.
type atomicMinFloat64 struct {
	bits atomic.Uint64
}

func (a *atomicMinFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }

func (a *atomicMinFloat64) load() float64 { return math.Float64frombits(a.bits.Load()) }

// tighten lowers the value to v if v is smaller (CAS loop; lost races just
// retry against the new, smaller value). It returns the displaced value
// and whether v actually replaced it — the trace layer turns successful
// tightenings into EvBoundTightened events.
func (a *atomicMinFloat64) tighten(v float64) (old float64, ok bool) {
	for {
		bits := a.bits.Load()
		old = math.Float64frombits(bits)
		if v >= old {
			return old, false
		}
		if a.bits.CompareAndSwap(bits, math.Float64bits(v)) {
			return old, true
		}
	}
}

// runHeapParallel drives the HEAP algorithm with the given number of
// workers from the root pair. It fills j.kheap (the global K-heap) and the
// shared atomic counters of j.stats; j.bound and the sequential T() are
// not used.
//
// Scratch: the join's own scratch holds the frontier and the global
// K-heap, each behind its mutex. Every worker takes a scratch of its own
// from the free list when it starts and returns it when it exits — frames,
// kernel arrays, batch and local heap are goroutine-local, so none
// of them needs a lock. A run of W workers therefore holds W + 1 scratches.
//
// Cancellation: workers poll ctx.Err() in take (once per claimed batch and
// per condition-variable wake), and a watcher goroutine turns the context
// firing into a fail+broadcast so workers blocked in cond.Wait unwind
// immediately. Everything spawned here is joined before returning — a
// cancelled query leaks no goroutines.
func (j *join) runHeapParallel(ctx context.Context, root nodePair, workers int) error {
	s := &parHeap{j: j, frontier: &j.sc.queue, timed: j.opts.Metrics != nil}
	s.frontier.reset()
	s.cond.L = &s.mu
	s.bound.store(math.Inf(1))
	s.pullShared() // seed from bounds other cooperating joins already found
	if root.minminSq <= s.bound.load() {
		s.frontier.push(root)
		s.j.stats.observeQueueLen(s.frontier.Len())
	}
	var wallStart time.Time
	if s.timed {
		wallStart = time.Now()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int32) {
			defer wg.Done()
			sc := acquireScratch()
			defer releaseScratch(sc)
			s.work(ctx, id, sc)
		}(int32(i))
	}
	// The watcher bridges the context's channel to the cond-based frontier:
	// without it a cancellation would only be noticed at the next wake. A
	// Background/TODO context has a nil Done channel and can never fire, so
	// the bridge is skipped entirely on the non-cancellable path. It joins
	// through its own WaitGroup because the stop channel can only close
	// after the workers' wg.Wait has returned.
	var stop chan struct{}
	var watcher sync.WaitGroup
	if ctx.Done() != nil {
		stop = make(chan struct{})
		watcher.Add(1)
		go func() {
			defer watcher.Done()
			select {
			case <-ctx.Done():
				s.fail(ctx.Err())
			case <-stop:
			}
		}()
	}
	wg.Wait()
	if stop != nil {
		close(stop)
		watcher.Wait()
	}
	if s.timed {
		if wall := time.Since(wallStart).Seconds(); wall > 0 {
			util := float64(s.busyNanos.Load()) / 1e9 / (wall * float64(workers))
			if j.opts.Metrics != nil {
				j.opts.Metrics.WorkerUtilization.Observe(util)
			}
		}
	}
	s.mu.Lock()
	err := s.err
	s.mu.Unlock()
	return err
}

// work is one worker's loop: claim a batch of frontier pairs, process
// them, merge local results when they can improve the global answer.
// Cancellation is observed in take, once per claimed batch, and by a
// worker-local stride-gated poll per processed pair, so a worker deep in
// a large batch still stops promptly without touching shared state. sc is
// the worker's scratch: its frame, kernel arrays, batch and local
// heap are used by this goroutine alone.
func (s *parHeap) work(ctx context.Context, id int32, sc *queryScratch) {
	local := &sc.local
	local.init(s.j.k)
	localMin := math.Inf(1) // best accepted distance since the last merge
	var gate cancelGate     // worker-local: no contention on the poll counter
	for {
		batch := s.take(ctx, sc.batch[:0])
		if len(batch) == 0 {
			break
		}
		sc.batch = batch
		s.j.traceWorkerSteal(id, len(batch))
		var t0 time.Time
		if s.timed {
			t0 = time.Now()
		}
		for _, p := range batch {
			if err := gate.poll(ctx); err != nil {
				s.fail(err)
				break
			}
			// T may have tightened since the pair was queued.
			if p.minminSq > s.bound.load() {
				continue
			}
			if err := s.process(p, sc, &localMin); err != nil {
				s.fail(err)
				break
			}
		}
		if localMin < s.bound.load() {
			// The local heap holds at least one pair that beats the
			// published bound (or the bound is still +Inf): publish.
			s.merge(local)
			localMin = math.Inf(1)
		}
		if s.timed {
			s.busyNanos.Add(time.Since(t0).Nanoseconds())
		}
		s.release()
	}
	// Leftover local results (pairs that never individually beat the
	// published bound can still be part of the final K).
	s.merge(local)
}

// process handles one claimed node pair in the worker's scratch: read,
// scan leaves into the local heap or expand, tighten the published bound,
// push surviving sub-pairs (push copies into the frontier, so the frame's
// sub-pair list is reused across pairs).
func (s *parHeap) process(p nodePair, sc *queryScratch, localMin *float64) error {
	j := s.j
	f := sc.frame(0)
	if err := j.readPair(p, f); err != nil {
		return err
	}
	if f.na.IsLeaf() && f.nb.IsLeaf() {
		if m := j.scanLeavesSweep(&f.na, &f.nb, &sc.local, s.bound.load()); m < *localMin {
			*localMin = m
		}
		return nil
	}
	e := j.beginExpand(&sc.kern, p, &f.na, &f.nb, s.bound.load())
	if j.tightens() && !math.IsInf(e.bound, 1) {
		if old, ok := s.bound.tighten(e.bound); ok {
			j.traceBoundValue(old, e.bound, j.boundSource())
			s.pushShared(e.bound)
		}
	}
	f.subs = e.finish(f.subs[:0], s.bound.load())
	if len(f.subs) > 0 {
		s.push(f.subs)
	}
	return nil
}

// take claims up to parBatch pairs from the frontier, blocking while the
// frontier is empty but other workers may still produce work. A nil return
// means the run is over (frontier drained and all workers idle, an error
// was recorded, or the context fired). The claimed batch counts the worker
// as busy until release. The ctx.Err poll runs once per batch claim and
// per cond wake — a few loads per ~parBatch node expansions.
func (s *parHeap) take(ctx context.Context, dst []nodePair) []nodePair {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err == nil {
			if err := ctx.Err(); err != nil {
				s.err = err
			}
		}
		if s.err != nil {
			return nil
		}
		if s.frontier.Len() > 0 {
			// CP5, parallel form: T only ever tightens, so if even the
			// best queued pair exceeds T the whole frontier is dead.
			// (Busy workers can still push qualifying pairs afterwards:
			// sub-pair MINMINDISTs grow monotonically down the tree but
			// start from their parent's, not from the frontier top's.)
			// The bound is loaded once so the popBatch limit cannot fall
			// below the top key the dead-frontier check just admitted —
			// the claimed batch is never empty.
			s.pullShared()
			b := s.bound.load()
			if s.frontier.pairs[0].minminSq > b {
				s.frontier.reset()
				continue
			}
			dst = s.frontier.popBatch(dst, parBatch, b)
			s.j.stats.heapBatches.Add(1)
			s.j.stats.heapBatchPairs.Add(int64(len(dst)))
			s.busy++
			return dst
		}
		if s.busy == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// push publishes surviving sub-pairs to the frontier and wakes waiting
// workers.
func (s *parHeap) push(pairs []nodePair) {
	s.mu.Lock()
	n := 0
	for _, sp := range pairs {
		s.frontier.push(sp)
	}
	if s.j.stats.observeQueueLen(s.frontier.Len()) {
		n = s.frontier.Len()
	}
	s.mu.Unlock()
	if n > 0 {
		s.j.traceHighWater(n)
	}
	s.cond.Broadcast()
}

// release marks the worker idle after a batch; the last idle worker with
// an empty frontier wakes everyone so they can exit.
func (s *parHeap) release() {
	s.mu.Lock()
	s.busy--
	wake := s.busy == 0 && s.frontier.Len() == 0
	s.mu.Unlock()
	if wake {
		s.cond.Broadcast()
	}
}

// fail records the first error and wakes all workers.
func (s *parHeap) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// merge folds a worker-local K-heap into the global one under the merge
// lock and publishes the (possibly tightened) K-heap threshold.
func (s *parHeap) merge(local *kHeap) {
	if len(local.pairs) == 0 {
		return
	}
	s.gmu.Lock()
	for i := range local.pairs {
		s.j.kheap.offer(local.pairs[i])
	}
	if s.j.kheap.full() {
		th := s.j.kheap.threshold()
		if old, ok := s.bound.tighten(th); ok {
			s.j.traceBoundValue(old, th, obs.SourceMerge)
			s.pushShared(th)
		}
	}
	s.gmu.Unlock()
	local.reset()
}

// pullShared folds the cross-join bound (Options.SharedBound) into the
// published bound, so the frontier purge and the batch limit observe
// tightenings found by other cooperating joins. No-op without one.
func (s *parHeap) pullShared() {
	if sb := s.j.shared; sb != nil {
		s.bound.tighten(sb.Load())
	}
}

// pushShared forwards a successful local tighten to the cross-join
// bound. Only CAS successes need forwarding: a failed local tighten
// means the published bound is already at most the candidate, and every
// published value has been forwarded before.
func (s *parHeap) pushShared(v float64) {
	if sb := s.j.shared; sb != nil {
		sb.Tighten(v)
	}
}
