package core

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/rtree"
)

// queryScratch owns every buffer a closest-pair traversal reuses from step
// to step: the decoded nodes and sub-pair lists of each recursion depth,
// the expansion kernel's flat arrays, and the backing arrays of the
// node-pair queue and of the K-heap. One query holds one scratch from
// start to end, and each worker of the parallel engine one more for the
// join it runs its tasks in (worker); of the query's own, only the result
// heap and the workers' shared state (run) are shared, the heap behind the
// engine's one mutex.
//
// Ownership rule: a decoded node is valid until the same depth's next
// readPair, and nothing in the scratch outlives the query — results leave
// it through kHeap.results, which copies. A warm scratch makes a query's
// allocations independent of how many nodes it reads and how long its
// queue grows (TestKCPQSteadyStateAllocs).
type queryScratch struct {
	frames  []*frame
	kern    kernelScratch
	tasks   []nodePair // the parallel engine's seeded task list
	sortBuf []nodePair // STD's merge-sort working space
	queue   pairHeap   // the HEAP queue
	kheap   kHeap      // the join's result heap (a worker's, in parallel)
	run     taskRun    // a parallel query's workers' shared state
	worker  join       // the join a parallel worker runs its tasks in
}

// frame is one recursion depth's share of the scratch: the two nodes of
// the pair being processed there and the sub-pairs it expanded to, which
// stay live while the recursion works through them. The iterative drivers
// use depth 0 only, the semi join one frame per depth of its walk over P.
type frame struct {
	na, nb rtree.Node
	subs   []nodePair
}

// frame returns the frame of a recursion depth, creating it on first use.
// Frames are held by pointer so that growing the list does not move the
// frames the callers further up the recursion are still using.
func (sc *queryScratch) frame(depth int) *frame {
	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, new(frame))
	}
	return sc.frames[depth]
}

// scratchRetainBytes is the largest queue-plus-heaps backing a scratch may
// carry back into the free list. The queue of one query over two
// 100k-point trees at K = 10⁴ is 23 MB; a scratch grown beyond 64 MB by
// one exceptional query is dropped rather than pinned for the life of the
// process.
const scratchRetainBytes = 64 << 20

// scratchFree is the one reuse point of the query engine: a LIFO free list
// of scratches, bounded at max(GOMAXPROCS, widest) + 1 entries, where
// widest is the most workers any parallel query in the process has run —
// what one parallel query at that width holds (a scratch per worker and
// the join's own), so that it too finds every scratch warm the next time.
// A query with more workers than cores (WithParallelism(n) takes n as
// given) would otherwise build the surplus anew on every call. It is
// deliberately not a sync.Pool: a Pool's per-P slots and its emptying
// every second GC made the multi-megabyte queue backing come back only
// some of the time (measured: 62 MB/query one run, 102 MB the next), while
// a list hands the same warm scratch to the next query every time.
var scratchFree struct {
	mu     sync.Mutex
	list   []*queryScratch
	widest int
}

// noteWorkers records that a parallel query runs n workers, widening the
// free list's bound to hold its scratches.
func noteWorkers(n int) {
	scratchFree.mu.Lock()
	scratchFree.widest = max(scratchFree.widest, n)
	scratchFree.mu.Unlock()
}

// scratchRetainCount is the free list's bound. Caller holds scratchFree.mu.
func scratchRetainCount() int {
	return max(runtime.GOMAXPROCS(0), scratchFree.widest) + 1
}

// acquireScratch takes the most recently released scratch, or a new one.
func acquireScratch() *queryScratch {
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	n := len(scratchFree.list)
	if n == 0 {
		return new(queryScratch)
	}
	sc := scratchFree.list[n-1]
	scratchFree.list[n-1] = nil
	scratchFree.list = scratchFree.list[:n-1]
	return sc
}

// releaseScratch returns a scratch once its query is over, whatever the
// outcome. It keeps no pointers into the trees or the caller's data (its
// buffers hold plain values; run and worker are cleared by their users),
// so there is nothing to clear here; every user resets the lengths it
// needs on entry.
func releaseScratch(sc *queryScratch) {
	if sc.retainedBytes() > scratchRetainBytes {
		return
	}
	scratchFree.mu.Lock()
	defer scratchFree.mu.Unlock()
	if len(scratchFree.list) < scratchRetainCount() {
		scratchFree.list = append(scratchFree.list, sc)
	}
}

// retainedBytes is the size of the buffers that scale with the query (K
// and the queue's high-water mark); the rest is bounded by node capacity
// and tree height.
func (sc *queryScratch) retainedBytes() int {
	return cap(sc.queue.pairs)*int(unsafe.Sizeof(nodePair{})) +
		cap(sc.kheap.pairs)*int(unsafe.Sizeof(kPair{}))
}
