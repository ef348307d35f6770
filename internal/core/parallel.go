package core

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sortx"
)

// This file is the parallel mode of the HEAP algorithm (Options.Parallelism
// > 1): independent subtree-pair tasks under one shared bound, the shape of
// the parallel divide-and-conquer closest pair rather than a shared
// priority queue (DESIGN.md §6). CP1-CP5 are sound in any processing order
// while T is an upper bound on the final K-th distance, so a query runs in
// three phases. Seed: the query's own join expands node pairs level by
// level into tasks. Run: W workers each run the unchanged sequential
// runHeap on one task at a time, in a join of their own whose T folds in
// the query's one bound.Shared. Merge: after each task a worker folds its
// K-heap into the query's under one mutex. Every prune is a strict > against
// a valid upper bound and the K-heaps keep the (distSq, refP, refQ) total
// order, so the result is the sequential query's, pairs and order
// included; only node-pair and disk-access counts depend on the schedule.

// seedTasksPerWorker is how many tasks per worker the seed expands to.
// The list grows by a whole tree level at a time: on mem-par's trees at
// K = 100, 8 and 256 stop on the same level, 2 and 4 one level higher,
// with worker queues ten times longer (EXPERIMENTS.md note 15).
const seedTasksPerWorker = 8

// taskRun is what the workers of one parallel query share.
type taskRun struct {
	j     *join
	tasks []nodePair
	next  atomic.Int64 // index of the next unclaimed task

	// mu guards the query's K-heap (j.kheap) and err, the first error.
	mu  sync.Mutex
	err error

	// busyNanos is the time workers spent inside tasks, kept only when the
	// query records metrics.
	busyNanos atomic.Int64
}

// runHeapParallel drives the HEAP algorithm from the root pair with the
// given number of workers. It fills j.kheap and j.stats: the counters are
// summed over the seed and every worker, MaxQueueSize is the largest
// worker queue.
//
// Scratch: the seed and the query heap live in the join's scratch; each
// worker takes one of its own from the free list and returns it on exit,
// so a run of W workers holds W + 1 scratches, and the free list is
// widened to keep them all.
//
// Cancellation: the seed polls ctx before every expansion, a worker
// before every task and, inside runHeap, every cancelStride pairs. Every
// worker is joined before this returns.
func (j *join) runHeapParallel(ctx context.Context, root nodePair, workers int) error {
	if j.shared == nil {
		j.sc.shared.Reset()
		j.shared = &j.sc.shared
	}
	tasks, err := j.seedTasks(ctx, root, seedTasksPerWorker*workers)
	if err != nil {
		return err
	}
	r := &taskRun{j: j, tasks: tasks}
	workers = min(workers, len(tasks))
	noteWorkers(workers)
	var wallStart time.Time // timestamps only for metrics
	if j.opts.Metrics != nil {
		wallStart = time.Now()
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := acquireScratch()
			defer releaseScratch(sc)
			r.work(ctx, r.j.worker(sc))
		}()
	}
	wg.Wait()
	if j.opts.Metrics != nil {
		if wall := time.Since(wallStart).Seconds(); wall > 0 && workers > 0 {
			j.opts.Metrics.WorkerUtilization.Observe(float64(r.busyNanos.Load()) / 1e9 / (wall * float64(workers)))
		}
	}
	return r.err
}

// seedTasks expands node pairs from the root one level at a time on the
// query's own join until at least target pairs, or only leaf pairs,
// remain, and returns them in best-first order. expandInto prunes each
// level against T, which its auxiliary bound tightens as the seed goes;
// a pair the bound overtook since its level was built is dropped.
func (j *join) seedTasks(ctx context.Context, root nodePair, target int) ([]nodePair, error) {
	f := j.sc.frame(0)
	tasks, next := append(j.sc.tasks[:0], root), f.subs[:0]
	internal := func(p nodePair) bool { return p.la > 0 || p.lb > 0 }
	for len(tasks) < target && slices.ContainsFunc(tasks, internal) {
		next = next[:0]
		for _, p := range tasks {
			switch {
			case p.minminSq > j.T():
				// CP5 since the level was built: dropped.
			case !internal(p):
				next = append(next, p)
			default:
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				na, nb, err := j.readPair(p, f)
				if err != nil {
					return nil, err
				}
				next = j.expandInto(p, na, nb, next)
			}
		}
		tasks, next = next, tasks
	}
	j.sc.tasks, f.subs = tasks, next
	j.sc.sortBuf = sortx.SortBuf(tasks, j.sc.sortBuf, func(a, b nodePair) bool { return a.less(&b) }, sortx.Merge)
	return tasks, nil
}

// worker returns the join one worker runs its tasks in: the query's trees,
// self mode, options, span and shared bound, with the worker's scratch,
// K-heap, auxiliary bound, counters and cancel gate.
func (j *join) worker(sc *queryScratch) *join {
	sc.kheap.init(j.k)
	return &join{
		ta: j.ta, tb: j.tb, opts: j.opts, k: j.k, self: j.self,
		sc: sc, kheap: &sc.kheap,
		bound:     math.Inf(1),
		span:      j.span,
		rootAreaA: j.rootAreaA, rootAreaB: j.rootAreaB,
		useTie: j.useTie, mA: j.mA, mB: j.mB,
		metric: j.metric, shared: j.shared,
	}
}

// work is one worker's loop: claim a task, run the sequential HEAP on it,
// merge. The first error stops every worker's claims. On exit the
// worker's counters join the query's.
func (r *taskRun) work(ctx context.Context, w *join) {
	defer r.j.stats.add(&w.stats)
	timed := w.opts.Metrics != nil
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.tasks) {
			return
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		// Tightenings other workers made are traced where they happened.
		w.lastT = w.T()
		err := ctx.Err()
		if err == nil {
			err = w.runHeap(ctx, r.tasks[i])
		}
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.mu.Unlock()
			r.next.Store(int64(len(r.tasks)))
			return
		}
		r.merge(w)
		if timed {
			r.busyNanos.Add(time.Since(t0).Nanoseconds())
		}
	}
}

// merge folds a worker's K-heap into the query's, publishes the query
// heap's threshold once it is full, and empties the worker's heap — its
// pairs are the query's now.
func (r *taskRun) merge(w *join) {
	if len(w.kheap.pairs) == 0 {
		return
	}
	r.mu.Lock()
	for i := range w.kheap.pairs {
		r.j.kheap.offer(w.kheap.pairs[i])
	}
	th := r.j.kheap.threshold()
	r.mu.Unlock()
	if old, ok := w.shared.Tighten(th); ok {
		w.traceBoundValue(old, th, obs.SourceMerge)
	}
	w.kheap.reset()
}
