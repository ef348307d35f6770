package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	cpq "repro"
	"repro/internal/core"
	"repro/internal/geom"
)

// workload is one row of the benchmark's workload table: the inputs, the
// index configuration and the primary op. The counts are the ISSUE's; the
// op count is whatever fits into the measure phase (-seconds).
type workload struct {
	name string
	why  string

	gen func(seed int64, n int) []geom.Point
	n   int // points per set
	k   int

	// Index configuration, applied to the facade indexes and to the twin
	// trees alike.
	bulkFill     float64 // 0 = one-at-a-time R* insertion
	bufferPages  int
	bufferShards int
	nodeCache    int
	disk         bool // build on disk, close, reopen with bufferPages

	// Query configuration.
	parallel bool // WithParallelism(W)
	shards   int  // WithShards

	mutate bool // interleave inserts and deletes on P
}

// The per-cycle update counts and the oracle stride of mutate-query.
const (
	updatesPerCycle = 100 // inserts, and as many deletes
	oracleStride    = 10
)

var workloads = []workload{
	{
		name: "mem-smallk",
		why:  "100k x 100k uniform, fully overlapping, K=100, pools hold every page: core expansion kernel and rtree node decode do the work, storage serves hits only",
		gen:  uniform, n: 100000, k: 100,
		bulkFill: 0.7, bufferPages: 16384, bufferShards: 1,
	},
	{
		name: "mem-bigk",
		why:  "same inputs at K=10000: ten times the point pairs and a 10000-entry K-heap, so the core leaf scan and kHeap dominate; bypasses nothing, but shifts the work off node expansion",
		gen:  uniform, n: 100000, k: 10000,
		bulkFill: 0.7, bufferPages: 16384, bufferShards: 1,
	},
	{
		name: "mem-par",
		why:  "mem-smallk through the parallel HEAP engine with W workers and striped pools: the more-than-one-core axis, where a sequential gain that costs the parallel path shows",
		gen:  uniform, n: 100000, k: 100,
		bulkFill: 0.7, bufferPages: 16384, bufferShards: 8, parallel: true,
	},
	{
		name: "disk-cold",
		why:  "mem-smallk's points on a DiskFile behind a 64-page pool, caches dropped before every query: working set far above the cache, so storage reads and evictions are the majority",
		gen:  uniform, n: 100000, k: 100,
		bulkFill: 0.7, bufferPages: 64, bufferShards: 1, disk: true,
	},
	{
		name: "clustered-sharded",
		why:  "62536 x 62536 clustered points with WithShards(4): every call drains, partitions, bulk-loads 8 trees, joins and merges, so the shard layer does most of the work",
		gen:  clustered, n: 62536, k: 100,
		bulkFill: 0.7, bufferPages: 256, bufferShards: 1, shards: 4,
	},
	{
		name: "mutate-query",
		why:  "50k x 50k insertion-built trees with a node cache; each cycle inserts 100, deletes 100, runs a K=10 query and a self closest pair: the write path beside the read path",
		gen:  uniform, n: 50000, k: 10,
		bufferPages: 512, bufferShards: 1, nodeCache: 4096, mutate: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// indexOptions is the facade form of the workload's index configuration.
func (w workload) indexOptions(pages int) []cpq.IndexOption {
	opts := []cpq.IndexOption{cpq.WithBufferPages(pages), cpq.WithBufferShards(w.bufferShards)}
	if w.bulkFill > 0 {
		opts = append(opts, cpq.WithBulkLoad(w.bulkFill))
	}
	if w.nodeCache > 0 {
		opts = append(opts, cpq.WithNodeCache(w.nodeCache))
	}
	return opts
}

// queryOptions is the facade form of the workload's query configuration.
func (w workload) queryOptions(workers int) []cpq.QueryOption {
	var opts []cpq.QueryOption
	if w.parallel {
		opts = append(opts, cpq.WithParallelism(workers))
	}
	if w.shards > 1 {
		opts = append(opts, cpq.WithShards(w.shards))
	}
	return opts
}

// coreOptions is what the facade hands the engine for queryOptions (minus
// sharding, which lives above the engine).
func (w workload) coreOptions(workers int) core.Options {
	o := core.DefaultOptions(core.Heap)
	if w.parallel {
		o.Parallelism = workers
	}
	return o
}

// inputs are the generated points of one run. The program under test
// receives only these.
type inputs struct {
	p, q []geom.Point
	// stream feeds mutate-query's inserts.
	stream *rand.Rand
	hash   string
}

// makeInputs generates the inputs of instance j of a run from the run seed:
// data set i of the instance uses seed 1000*seed + 10*j + i. n overrides
// the workload's cardinality when > 0 (tests).
func makeInputs(w workload, seed int64, j, n int) inputs {
	if n <= 0 {
		n = w.n
	}
	base := 1000*seed + 10*int64(j)
	in := inputs{
		p:      w.gen(base, n),
		q:      w.gen(base+1, n),
		stream: rand.New(rand.NewSource(base + 2)),
	}
	in.hash = hashPoints(in.p, in.q)
	return in
}

// uniform returns n points uniform in the unit square.
func uniform(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// clustered returns n points in the unit square in 60 Gaussian clusters of
// power-law weight along a diagonal band, plus 5% uniform background: the
// "Sequoia-like" stand-in for the paper's real data, dense cores and large
// empty regions.
func clustered(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 60
	var cx, cy, sigma, cum [clusters]float64
	total := 0.0
	for i := 0; i < clusters; i++ {
		t := rng.Float64()
		cx[i] = math.Min(0.95, math.Max(0.05, t+rng.NormFloat64()*0.12))
		cy[i] = math.Min(0.95, math.Max(0.05, 1-t+rng.NormFloat64()*0.12))
		sigma[i] = 0.004 + rng.Float64()*0.05
		total += math.Pow(rng.Float64(), 3) + 0.02
		cum[i] = total
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		if rng.Float64() < 0.05 {
			pts = append(pts, geom.Point{X: rng.Float64(), Y: rng.Float64()})
			continue
		}
		r := rng.Float64() * total
		c := 0
		for c < clusters-1 && r >= cum[c] {
			c++
		}
		p := geom.Point{X: cx[c] + rng.NormFloat64()*sigma[c], Y: cy[c] + rng.NormFloat64()*sigma[c]}
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			continue
		}
		pts = append(pts, p)
	}
	return pts
}

// hashPoints is the FNV-1a hash of the coordinate bits of all sets, the
// fingerprint that says two runs measured the same inputs.
func hashPoints(sets ...[]geom.Point) string {
	h := fnv.New64a()
	var b [16]byte
	for _, pts := range sets {
		for _, p := range pts {
			binary.LittleEndian.PutUint64(b[:8], math.Float64bits(p.X))
			binary.LittleEndian.PutUint64(b[8:], math.Float64bits(p.Y))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashStrings folds the instances' fingerprints into the run's.
func hashStrings(parts []string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashPairs fingerprints a query result: refs and distance bits in order.
func hashPairs(pairs []cpq.Pair) uint64 {
	h := fnv.New64a()
	var b [24]byte
	for i := range pairs {
		binary.LittleEndian.PutUint64(b[:8], uint64(pairs[i].RefP))
		binary.LittleEndian.PutUint64(b[8:16], uint64(pairs[i].RefQ))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(pairs[i].Dist))
		h.Write(b[:])
	}
	return h.Sum64()
}
