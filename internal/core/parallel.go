package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sortx"
)

// This file is the parallel mode of the HEAP algorithm (Options.Parallelism
// > 1): independent subtree-pair tasks, the shape of the parallel
// divide-and-conquer closest pair rather than a shared priority queue
// (DESIGN.md §6). CP1-CP5 are sound in any processing order while T is an
// upper bound on the final K-th distance, so a query runs in three phases.
// Seed: the query's own join expands node pairs level by level into tasks,
// in best-first order. Run: W workers each run the sequential runHeap,
// with its leaf batch, on a fixed share of the tasks — worker i takes
// tasks i, i + W, i + 2W, … — in a join of its own whose auxiliary bound
// starts at the seed's T. A worker's K-heap lives across its tasks, which
// are disjoint, so once full it holds K distinct pairs and its threshold
// is a sound global bound. Merge: when a worker has run its share it
// folds its K-heap into the query's under one mutex, once. Every prune is
// a strict > against a valid upper bound and the K-heaps keep the
// (distSq, refP, refQ) total order, so the result is the sequential
// query's, pairs and order included.
//
// Workers exchange no bound while they run: what a worker prunes depends
// on its share and the seed's T alone, never on the schedule, so the
// node-pair, sub-pair and point-pair counts of a parallel query repeat
// from run to run as the sequential query's do; only disk accesses, through
// a buffer pool the workers share, may vary. A join handed an external
// Options.SharedBound (the shard executor's) still folds it in and
// publishes to it, in the workers as in the sequential drivers.

// seedTasksPerWorker is how many tasks per worker the seed expands to.
// The list grows by a whole tree level at a time: on mem-par's trees at
// K = 100, 8 and 256 stop on the same level, 2 and 4 one level higher,
// with worker queues ten times longer (EXPERIMENTS.md note 15).
const seedTasksPerWorker = 8

// taskRun is what the workers of one parallel query share. It lives in the
// query's scratch (queryScratch.run), so a warm parallel query allocates
// it no more than a sequential one does; start fills it and end clears
// the pointers it holds into the query.
type taskRun struct {
	j       *join
	ctx     context.Context
	tasks   []nodePair
	workers int         // the stride between one worker's tasks
	seedT   float64     // T when the seed ended, every worker's start
	failed  atomic.Bool // a task failed: every worker stops
	wg      sync.WaitGroup

	// mu guards the query's K-heap (j.kheap) and err, the first error.
	mu  sync.Mutex
	err error

	// busyNanos is the time workers spent inside tasks, kept only when the
	// query records metrics.
	busyNanos atomic.Int64

	// scratches holds each worker's scratch until every worker is done
	// (releaseWorkers).
	scratches []*queryScratch
}

// runHeapParallel drives the HEAP algorithm from the root pair with the
// given number of workers. It fills j.kheap and j.stats: the counters are
// summed over the seed and every worker, MaxQueueSize is the largest
// worker queue, and none depends on the schedule.
//
// Scratch: the seed, the query heap and the taskRun live in the join's
// scratch; each worker takes one of its own from the free list and runs
// its join in it, and the W scratches go back together once every worker
// is done, so a run of W workers holds W + 1 scratches, and the free list
// is widened to keep them all.
//
// Cancellation: the seed polls ctx before every expansion, a worker
// before every task and, inside runHeap, every cancelStride pairs. Every
// worker is joined before this returns.
func (j *join) runHeapParallel(ctx context.Context, root nodePair, workers int) error {
	tasks, err := j.seedTasks(ctx, root, seedTasksPerWorker*workers)
	if err != nil {
		return err
	}
	workers = min(workers, len(tasks))
	if workers == 0 {
		return nil // the bound pruned every task
	}
	r := &j.sc.run
	r.start(ctx, j, tasks, workers)
	defer r.end()
	noteWorkers(workers)
	var em *obs.EngineMetrics // timestamps only for metrics
	if o := j.opts.Observe; o != nil {
		em = o.Metrics
	}
	var wallStart time.Time
	if em != nil {
		wallStart = time.Now()
	}
	// The calling goroutine is the last worker: it would only wait.
	r.wg.Add(workers)
	for i := 1; i < workers; i++ {
		go r.work(i)
	}
	r.work(0)
	r.wg.Wait()
	r.releaseWorkers()
	if em != nil {
		if wall := time.Since(wallStart).Seconds(); wall > 0 {
			em.WorkerUtilization.Observe(float64(r.busyNanos.Load()) / 1e9 / (wall * float64(workers)))
		}
	}
	return r.err
}

// start readies the run for one query's workers.
func (r *taskRun) start(ctx context.Context, j *join, tasks []nodePair, workers int) {
	r.j, r.ctx, r.tasks, r.workers, r.err = j, ctx, tasks, workers, nil
	r.scratches = slices.Grow(r.scratches[:0], workers)[:workers]
	r.seedT = j.T()
	r.failed.Store(false)
	r.busyNanos.Store(0)
}

// releaseWorkers gives the workers' scratches back to the free list, each
// queue grown to the longest among them. Which worker a scratch serves in
// the next query is up to the scheduler, and the workers' queues differ in
// length: a scratch that had only served short ones would grow again on
// its first long one, long after the warm-up.
func (r *taskRun) releaseWorkers() {
	longest := 0
	for _, sc := range r.scratches {
		longest = max(longest, cap(sc.queue.pairs))
	}
	for i, sc := range r.scratches {
		if cap(sc.queue.pairs) < longest {
			// Exactly longest: append's rounding up would leave this queue
			// the longest, and the next query would grow the others past it.
			sc.queue.pairs = make([]nodePair, 0, longest)
		}
		releaseScratch(sc)
		r.scratches[i] = nil
	}
}

// end drops the run's references to the query, so that a scratch on the
// free list pins no tree, context or caller data.
func (r *taskRun) end() {
	r.j, r.ctx, r.tasks, r.err = nil, nil, nil, nil
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

// worker readies the join one worker runs its tasks in, inside the
// worker's scratch: the query's trees, self mode, options, span and
// external shared bound, with the worker's scratch, K-heap, counters and
// cancel gate, and an auxiliary bound that starts at t, the seed's T.
func (j *join) worker(sc *queryScratch, t float64) *join {
	sc.kheap.init(j.k)
	sc.worker = join{
		ta: j.ta, tb: j.tb, opts: j.opts, k: j.k, self: j.self,
		sc: sc, kheap: &sc.kheap,
		bound: t,
		span:  j.span, lastT: t,
		rootAreaA: j.rootAreaA, rootAreaB: j.rootAreaB,
		useTie: j.useTie, mA: j.mA, mB: j.mB,
		metric: j.metric, shared: j.shared,
		leafBatch: true,
	}
	return &sc.worker
}

// work is the life of the worker that starts at task first: take a
// scratch, run its share of the tasks in the join it holds, then merge its
// K-heap into the query's once (unless a task failed) and add its counters
// to the query's. The scratch goes back with the other workers' once all
// are done (releaseWorkers).
func (r *taskRun) work(first int) {
	defer r.wg.Done()
	sc := acquireScratch()
	r.scratches[first] = sc
	w := r.j.worker(sc, r.seedT)
	if r.runTasks(w, first) {
		r.merge(w)
	}
	r.j.stats.add(&w.stats)
	sc.worker = join{} // pins no tree on the free list
}

// runTasks runs the sequential HEAP in w on tasks first, first + W, …
// until its share is done. The first error stops every worker at its next
// task; it reports whether w ended without one.
func (r *taskRun) runTasks(w *join, first int) bool {
	timed := w.opts.Observe != nil && w.opts.Observe.Metrics != nil
	for i := first; i < len(r.tasks); i += r.workers {
		if r.failed.Load() {
			return false
		}
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		err := r.ctx.Err()
		if err == nil {
			err = w.runHeap(r.ctx, r.tasks[i])
		}
		if err != nil {
			r.mu.Lock()
			if r.err == nil {
				r.err = err
			}
			r.mu.Unlock()
			r.failed.Store(true)
			return false
		}
		if timed {
			r.busyNanos.Add(time.Since(t0).Nanoseconds())
		}
	}
	return true
}

// merge folds a worker's K-heap into the query's and publishes the query
// heap's threshold to the external shared bound, if any, once it is full.
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
}
