// Package core is a lint fixture nested under an internal/core path so it
// falls inside the bufferdiscipline scope for the join rule: the
// sequential drivers' expandInto/scanLeaves on any path reachable from a
// go statement must be flagged, the per-worker beginExpand/finish and
// scanLeavesSweep pair must not, and sequential use stays legal.
package core

// join mimics the engine's join state: a non-atomic bound and a shared
// K-heap that only the sequential drivers may touch.
type join struct {
	bound float64
	heap  []float64
}

type nodePair struct{ minminSq float64 }

type expansion struct{ j *join }

// expandInto is the sequential expansion entry point (assigns j.bound).
func (j *join) expandInto(p nodePair, dst []nodePair) []nodePair {
	j.bound = p.minminSq
	return append(dst, p)
}

// scanLeaves offers into the shared K-heap; sequential only.
func (j *join) scanLeaves(d float64) {
	j.heap = append(j.heap, d)
}

// beginExpand / finish are the parallel-safe pair.
func (j *join) beginExpand(p nodePair) expansion { return expansion{j: j} }

func (e expansion) finish(dst []nodePair) []nodePair { return dst }

// scanLeavesSweep scans against a worker-local heap; parallel-safe.
func (j *join) scanLeavesSweep(local *[]float64, d float64) {
	*local = append(*local, d)
}

// spawnWorkers starts the goroutines the check traces from.
func spawnWorkers(j *join) {
	go badWorker(j)
	go func() { badLeafChain(j) }()
	go goodWorker(j)
	sequentialDriver(j)
}

// badWorker calls the sequential expansion from a goroutine; a violation.
func badWorker(j *join) {
	subs := j.expandInto(nodePair{minminSq: 1}, nil)
	_ = subs
}

// badLeafChain reaches scanLeaves transitively; a violation.
func badLeafChain(j *join) { leafHelper(j) }

func leafHelper(j *join) { j.scanLeaves(2) }

// goodWorker uses the per-worker pair; no finding.
func goodWorker(j *join) {
	var local []float64
	e := j.beginExpand(nodePair{minminSq: 3})
	_ = e.finish(nil)
	j.scanLeavesSweep(&local, 3)
}

// sequentialDriver is never spawned, so its calls are the legal
// sequential contract.
func sequentialDriver(j *join) {
	_ = j.expandInto(nodePair{minminSq: 4}, nil)
	j.scanLeaves(4)
}

// Query is the engine's exported entry point: a sequential query on a join
// of its own, legal from any other package's goroutine (see ../shard).
func Query() {
	sequentialDriver(new(join))
}
