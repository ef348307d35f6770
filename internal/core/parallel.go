package core

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"
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
// folds its K-heap and its counters into the query's under one mutex,
// once. Every prune is a strict > against a valid upper bound and the
// K-heaps keep the (distSq, refP, refQ) total order, so the result is the
// sequential query's, pairs and order included.
//
// Worker i runs in its own scratch, the query scratch's i-th worker slot,
// and one goroutine writes its join: its counters are plain integers, and
// the same share of tasks meets the same buffers on every warm run.
//
// Workers exchange no bound while they run: what a worker prunes depends
// on its share and the seed's T alone, never on the schedule, so the
// node-pair, sub-pair and point-pair counts of a parallel query repeat
// from run to run as the sequential query's do; only disk accesses, through
// a buffer pool the workers share, may vary.

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

	// mu guards the query's K-heap (j.kheap) and counters (j.stats), and
	// err, the first error.
	mu  sync.Mutex
	err error
}

// runHeapParallel drives the HEAP algorithm from the root pair with the
// given number of workers. It fills j.kheap and j.stats: the counters are
// summed over the seed and every worker, MaxQueueSize is the largest
// worker queue, and none depends on the schedule.
//
// Scratch: the seed, the query heap and the taskRun live in the join's
// scratch; worker i runs its join in the scratch's i-th worker slot
// (queryScratch.workers), which goes back to the free list inside it.
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
	// The calling goroutine is the last worker: it would only wait.
	r.wg.Add(workers)
	for i := 1; i < workers; i++ {
		go r.work(i)
	}
	r.work(0)
	r.wg.Wait()
	return r.err
}

// start readies the run for one query's workers, creating the worker
// slots of the query's scratch that no earlier query used.
func (r *taskRun) start(ctx context.Context, j *join, tasks []nodePair, workers int) {
	r.j, r.ctx, r.tasks, r.workers, r.err = j, ctx, tasks, workers, nil
	r.seedT = j.T()
	r.failed.Store(false)
	for len(j.sc.workers) < workers {
		j.sc.workers = append(j.sc.workers, new(queryScratch))
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
	slices.SortStableFunc(tasks, func(a, b nodePair) int {
		switch {
		case a.less(&b):
			return -1
		case b.less(&a):
			return 1
		}
		return 0
	})
	return tasks, nil
}

// worker readies the join one worker runs its tasks in, inside the
// worker's scratch: the query's trees, self mode, options and capture, with
// the worker's scratch, K-heap, counters and cancel gate, and an auxiliary
// bound that starts at t, the seed's T.
func (j *join) worker(sc *queryScratch, t float64) *join {
	sc.kheap.init(j.k)
	sc.worker = join{
		ta: j.ta, tb: j.tb, opts: j.opts, k: j.k, self: j.self,
		sc: sc, kheap: &sc.kheap,
		bound: t,
		ex:    j.ex, lastT: t,
		rootAreaA: j.rootAreaA, rootAreaB: j.rootAreaB,
		useTie: j.useTie, mA: j.mA, mB: j.mB,
		metric:    j.metric,
		leafBatch: true,
	}
	return &sc.worker
}

// work is the life of the worker that starts at task first: run its share
// of the tasks in its scratch slot's join, then, once and under the run's
// mutex, fold its K-heap into the query's (unless a worker failed), its
// counters by Stats.Merge's rule, or its error.
func (r *taskRun) work(first int) {
	defer r.wg.Done()
	sc := r.j.sc.workers[first]
	w := r.j.worker(sc, r.seedT)
	err := r.runTasks(w, first)
	r.mu.Lock()
	switch {
	case err != nil:
		r.err = cmp.Or(r.err, err)
	case !r.failed.Load():
		for i := range w.kheap.pairs {
			r.j.kheap.offer(w.kheap.pairs[i])
		}
	}
	q, c := &r.j.stats, &w.stats
	q.nodePairsProcessed += c.nodePairsProcessed
	q.subPairsGenerated += c.subPairsGenerated
	q.subPairsPruned += c.subPairsPruned
	q.pointPairsCompared += c.pointPairsCompared
	q.maxQueueSize = max(q.maxQueueSize, c.maxQueueSize)
	r.mu.Unlock()
	sc.worker = join{} // pins no tree on the free list
}

// runTasks runs the sequential HEAP in w on tasks first, first + W, …
// until its share is done. An error stops every worker at its next task.
func (r *taskRun) runTasks(w *join, first int) error {
	for i := first; i < len(r.tasks) && !r.failed.Load(); i += r.workers {
		err := r.ctx.Err()
		if err == nil {
			err = w.runHeap(r.ctx, r.tasks[i])
		}
		if err != nil {
			r.failed.Store(true)
			return err
		}
	}
	return nil
}
