package core

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/rtree"
	"repro/internal/storage"
)

// queryScratch owns every buffer a closest-pair traversal reuses from step
// to step: the decoded nodes and sub-pair lists of each recursion depth,
// the expansion kernel's flat arrays, and the backing arrays of the
// node-pair queue and of the K-heap. One query holds one scratch from
// start to end. A parallel query's worker i runs its join (worker) in the
// scratch's i-th worker slot, which the scratch owns and keeps across
// queries; of the query's own scratch, only the result heap, the join's
// counters and the workers' shared state (run) are shared, the first two
// behind the engine's one mutex.
//
// Ownership rule: a decoded node is valid until the same depth's next
// readPair, and nothing in the scratch outlives the query — results leave
// it through kHeap.results, which copies. A warm scratch makes a query's
// allocations independent of how many nodes it reads and how long its
// queue grows (TestKCPQSteadyStateAllocs).
type queryScratch struct {
	frames  []*frame
	kern    kernelScratch
	tasks   []nodePair      // the parallel engine's seeded task list
	sortBuf []nodePair      // STD's merge-sort working space
	queue   pairHeap        // the HEAP queue
	kheap   kHeap           // the join's result heap (a worker's, in parallel)
	run     taskRun         // a parallel query's workers' shared state
	worker  join            // the join a parallel worker runs its tasks in
	leaves  leafFrame       // a task-engine worker's leaf batch (scanLeafBatch)
	workers []*queryScratch // a parallel query's worker i runs in workers[i]
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

// leafFrame holds the child leaves of one leaf batch (scanLeafBatch), one
// side per tree: each leaf is read into a slot of its side the first time
// a pair of the batch names it and serves every later pair that does, so a
// batch reads at most nA + nB leaves, each once. A self join's diagonal
// batch keeps both sides of its pairs in side a.
type leafFrame struct {
	a, b leafSide
}

// leafSide is one tree's share of a leafFrame: the pages read so far in
// this batch and, slot for slot, their decoded nodes.
type leafSide struct {
	ids   []storage.PageID
	nodes []rtree.Node
}

// reset readies the frame for a batch over trees whose nodes hold at most
// m entries. A side grows once, to m slots at once, each node created
// with room for m entries: a slot that later holds a fuller leaf, or a
// scratch that served smaller expansions before, never regrows, so a warm
// batch allocates nothing.
func (lf *leafFrame) reset(m int) {
	lf.a.reset(m)
	lf.b.reset(m)
}

func (s *leafSide) reset(m int) {
	if len(s.nodes) < m {
		s.nodes, s.ids = make([]rtree.Node, m), make([]storage.PageID, 0, m)
		for i := range s.nodes {
			s.nodes[i].Entries = make([]rtree.Entry, 0, m)
		}
	}
	s.ids = s.ids[:0]
}

// leaf returns the side's copy of leaf page id of tree t, reading it on
// the batch's first ask.
func (s *leafSide) leaf(t *rtree.Tree, id storage.PageID) (*rtree.Node, error) {
	for i, have := range s.ids {
		if have == id {
			return &s.nodes[i], nil
		}
	}
	n := &s.nodes[len(s.ids)]
	if err := t.ReadNodeInto(id, n); err != nil {
		return nil, err
	}
	s.ids = append(s.ids, id)
	return n, nil
}

// scratchRetainBytes is the largest queue-plus-heaps backing a scratch,
// with its worker scratches, may carry back into the free list. The queue
// of one query over two 100k-point trees at K = 10⁴ is 23 MB; a scratch
// grown beyond 64 MB by one exceptional query is dropped rather than
// pinned for the life of the process.
const scratchRetainBytes = 64 << 20

// scratchFree is the one reuse point of the query engine: a LIFO free list
// of query scratches, bounded at GOMAXPROCS + 1 entries, each with the
// worker scratches its parallel queries have used. It is deliberately not
// a sync.Pool: a Pool's per-P slots and its emptying every second GC made
// the multi-megabyte queue backing come back only some of the time
// (measured: 62 MB/query one run, 102 MB the next), while a list hands the
// same warm scratch to the next query every time.
var scratchFree struct {
	mu   sync.Mutex
	list []*queryScratch
}

// scratchRetainCount is the free list's bound.
func scratchRetainCount() int {
	return runtime.GOMAXPROCS(0) + 1
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
// outcome, its worker scratches with it. It keeps no pointers into the
// trees or the caller's data (its buffers hold plain values; run and each
// worker slot's worker are cleared by their users), so there is nothing
// to clear here; every user resets the lengths it needs on entry.
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
// and the queue's high-water mark), its worker scratches' included; the
// rest is bounded by node capacity and tree height.
func (sc *queryScratch) retainedBytes() int {
	n := cap(sc.queue.pairs)*int(unsafe.Sizeof(nodePair{})) +
		cap(sc.kheap.pairs)*int(unsafe.Sizeof(kPair{}))
	for _, w := range sc.workers {
		n += w.retainedBytes()
	}
	return n
}
