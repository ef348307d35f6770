package incremental

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// goldenUnbounded is how many pairs a golden case without MaxK draws.
const goldenUnbounded = 3000

// buildFaultTree indexes pts on a FaultFile, disarmed, so the same trees
// serve the golden pin and the fault sweep.
func buildFaultTree(t testing.TB, pts []geom.Point) (*rtree.Tree, *storage.FaultFile) {
	t.Helper()
	ff := storage.NewFaultFile(storage.NewMemFile(256))
	tr, err := rtree.New(storage.NewBufferPool(ff, 0), rtree.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if err := tr.InsertPoint(p, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr, ff
}

// gridPoints draws n points on a cells × cells grid of the unit square,
// so a set holds duplicate points and two sets share points: many pairs
// tie, down to distance 0.
func gridPoints(seed int64, n, cells int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: float64(rng.Intn(cells)) / float64(cells), Y: float64(rng.Intn(cells)) / float64(cells)}
	}
	return pts
}

// goldenShape is one pair of trees of the golden pin, with the fault
// files under them.
type goldenShape struct {
	name   string
	ta, tb *rtree.Tree
	fa, fb *storage.FaultFile
}

// goldenShapes builds the pin's inputs: a tall tree of tallN points
// against a short one of shortN in both orientations, and two overlapping
// trees of dupN points each with duplicates.
func goldenShapes(t testing.TB, tallN, shortN, dupN int) []goldenShape {
	t.Helper()
	tall, ftall := buildFaultTree(t, uniformPoints(3100, tallN, 0))
	short, fshort := buildFaultTree(t, uniformPoints(3200, shortN, 0.3))
	if tall.Height() < short.Height()+2 {
		t.Fatalf("tall and short trees have heights %d and %d", tall.Height(), short.Height())
	}
	dupA, fdupA := buildFaultTree(t, gridPoints(3300, dupN, 24))
	dupB, fdupB := buildFaultTree(t, gridPoints(3400, dupN, 24))
	return []goldenShape{
		{"tallP", tall, short, ftall, fshort},
		{"tallQ", short, tall, fshort, ftall},
		{"dup", dupA, dupB, fdupA, fdupB},
	}
}

// goldenCase is one join of the pin. k = 0 is the unbounded join, read
// for its first goldenUnbounded pairs.
type goldenCase struct {
	shape  goldenShape
	trav   Traversal
	k      int
	metric geom.Metric
	buffer int
}

func (c goldenCase) String() string {
	return fmt.Sprintf("%s/%v/k=%d/%v/buf=%d", c.shape.name, c.trav, c.k, c.metric, c.buffer)
}

// goldenCases lists every traversal × K × metric × buffer over shapes.
func goldenCases(shapes []goldenShape) []goldenCase {
	var cs []goldenCase
	for _, s := range shapes {
		for _, tr := range Traversals() {
			for _, k := range []int{1, 100, 0} {
				for _, m := range []geom.Metric{geom.L2(), geom.L1(), geom.LInf()} {
					for _, buf := range []int{0, 16} {
						cs = append(cs, goldenCase{s, tr, k, m, buf})
					}
				}
			}
		}
	}
	return cs
}

// run empties both pools, sizes each to c.buffer pages, and draws the
// case's pairs from the iterator start returns.
func (c goldenCase) run(start func(ta, tb *rtree.Tree, opts Options) (*Iterator, error)) ([]core.Pair, Stats, error) {
	for _, tr := range []*rtree.Tree{c.shape.ta, c.shape.tb} {
		tr.Pool().Resize(c.buffer)
		tr.Pool().Clear()
	}
	it, err := start(c.shape.ta, c.shape.tb, Options{Traversal: c.trav, MaxK: c.k, Metric: c.metric})
	if err != nil {
		return nil, Stats{}, err
	}
	limit := c.k
	if limit == 0 {
		limit = goldenUnbounded
	}
	var out []core.Pair
	for len(out) < limit {
		p, ok, err := it.Next()
		if err != nil {
			return out, it.Stats(), err
		}
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out, it.Stats(), nil
}

// goldenSummary renders a run's counters, each tree's reads and an FNV
// hash of the pairs' float bits and refs.
func goldenSummary(pairs []core.Pair, s Stats) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, p := range pairs {
		for _, f := range []float64{p.P.X, p.P.Y, p.Q.X, p.Q.Y, p.Dist} {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
			h.Write(buf[:])
		}
		for _, r := range []int64{p.RefP, p.RefQ} {
			binary.LittleEndian.PutUint64(buf[:], uint64(r))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("inserted=%d popped=%d maxQueue=%d reported=%d readsP=%d readsQ=%d hash=%016x",
		s.Inserted, s.Popped, s.MaxQueueSize, s.Reported, s.IOP.Reads, s.IOQ.Reads, h.Sum64())
}

// TestGoldenJoin holds the join to the counters and pairs recorded before
// the queue item became a pair of sides: every pair in order, the queue's
// insertions, pops and high-water mark, and each tree's reads.
func TestGoldenJoin(t *testing.T) {
	for _, c := range goldenCases(goldenShapes(t, 1500, 40, 300)) {
		pairs, stats, err := c.run(New)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if got := goldenSummary(pairs, stats); got != goldenJoin[c.String()] {
			t.Errorf("%v:\n got %s\nwant %s", c, got, goldenJoin[c.String()])
		}
	}
}

// goldenJoin maps each golden case to its goldenSummary.
var goldenJoin = map[string]string{
	"tallP/BAS/k=1/L2/buf=0":      "inserted=2575 popped=2466 maxQueue=160 reported=1 readsP=316 readsQ=2151 hash=21a25742ed080488",
	"tallP/BAS/k=1/L2/buf=16":     "inserted=2575 popped=2466 maxQueue=160 reported=1 readsP=315 readsQ=10 hash=21a25742ed080488",
	"tallP/BAS/k=1/L1/buf=0":      "inserted=2602 popped=2482 maxQueue=179 reported=1 readsP=317 readsQ=2166 hash=ae46fffde55684d7",
	"tallP/BAS/k=1/L1/buf=16":     "inserted=2602 popped=2482 maxQueue=179 reported=1 readsP=316 readsQ=10 hash=ae46fffde55684d7",
	"tallP/BAS/k=1/Linf/buf=0":    "inserted=2552 popped=2464 maxQueue=138 reported=1 readsP=316 readsQ=2149 hash=23cc46194e811837",
	"tallP/BAS/k=1/Linf/buf=16":   "inserted=2552 popped=2464 maxQueue=138 reported=1 readsP=315 readsQ=10 hash=23cc46194e811837",
	"tallP/BAS/k=100/L2/buf=0":    "inserted=3845 popped=2921 maxQueue=1229 reported=100 readsP=332 readsQ=2491 hash=51872638f277c014",
	"tallP/BAS/k=100/L2/buf=16":   "inserted=3845 popped=2921 maxQueue=1229 reported=100 readsP=331 readsQ=11 hash=51872638f277c014",
	"tallP/BAS/k=100/L1/buf=0":    "inserted=3979 popped=3004 maxQueue=1337 reported=100 readsP=333 readsQ=2573 hash=090d0efe69f3cb41",
	"tallP/BAS/k=100/L1/buf=16":   "inserted=3979 popped=3004 maxQueue=1337 reported=100 readsP=332 readsQ=11 hash=090d0efe69f3cb41",
	"tallP/BAS/k=100/Linf/buf=0":  "inserted=3788 popped=2877 maxQueue=1190 reported=100 readsP=329 readsQ=2450 hash=1efe5fa276f32a59",
	"tallP/BAS/k=100/Linf/buf=16": "inserted=3788 popped=2877 maxQueue=1190 reported=100 readsP=328 readsQ=11 hash=1efe5fa276f32a59",
	"tallP/BAS/k=0/L2/buf=0":      "inserted=20323 popped=7842 maxQueue=12493 reported=3000 readsP=386 readsQ=4458 hash=7671d6fda5e3b2bb",
	"tallP/BAS/k=0/L2/buf=16":     "inserted=20323 popped=7842 maxQueue=12493 reported=3000 readsP=385 readsQ=11 hash=7671d6fda5e3b2bb",
	"tallP/BAS/k=0/L1/buf=0":      "inserted=22299 popped=8279 maxQueue=14029 reported=3000 readsP=403 readsQ=4878 hash=ee379e98957bf39a",
	"tallP/BAS/k=0/L1/buf=16":     "inserted=22299 popped=8279 maxQueue=14029 reported=3000 readsP=402 readsQ=12 hash=ee379e98957bf39a",
	"tallP/BAS/k=0/Linf/buf=0":    "inserted=19408 popped=7648 maxQueue=11765 reported=3000 readsP=381 readsQ=4269 hash=c75964865369420a",
	"tallP/BAS/k=0/Linf/buf=16":   "inserted=19408 popped=7648 maxQueue=11765 reported=3000 readsP=380 readsQ=11 hash=c75964865369420a",
	"tallP/EVN/k=1/L2/buf=0":      "inserted=908 popped=829 maxQueue=115 reported=1 readsP=186 readsQ=644 hash=21a25742ed080488",
	"tallP/EVN/k=1/L2/buf=16":     "inserted=908 popped=829 maxQueue=115 reported=1 readsP=185 readsQ=10 hash=21a25742ed080488",
	"tallP/EVN/k=1/L1/buf=0":      "inserted=927 popped=840 maxQueue=125 reported=1 readsP=189 readsQ=652 hash=ae46fffde55684d7",
	"tallP/EVN/k=1/L1/buf=16":     "inserted=927 popped=840 maxQueue=125 reported=1 readsP=188 readsQ=10 hash=ae46fffde55684d7",
	"tallP/EVN/k=1/Linf/buf=0":    "inserted=895 popped=828 maxQueue=104 reported=1 readsP=186 readsQ=643 hash=23cc46194e811837",
	"tallP/EVN/k=1/Linf/buf=16":   "inserted=895 popped=828 maxQueue=104 reported=1 readsP=185 readsQ=10 hash=23cc46194e811837",
	"tallP/EVN/k=100/L2/buf=0":    "inserted=1706 popped=1187 maxQueue=723 reported=100 readsP=244 readsQ=845 hash=51872638f277c014",
	"tallP/EVN/k=100/L2/buf=16":   "inserted=1706 popped=1187 maxQueue=723 reported=100 readsP=241 readsQ=11 hash=51872638f277c014",
	"tallP/EVN/k=100/L1/buf=0":    "inserted=1781 popped=1250 maxQueue=754 reported=100 readsP=259 readsQ=893 hash=090d0efe69f3cb41",
	"tallP/EVN/k=100/L1/buf=16":   "inserted=1781 popped=1250 maxQueue=754 reported=100 readsP=256 readsQ=11 hash=090d0efe69f3cb41",
	"tallP/EVN/k=100/Linf/buf=0":  "inserted=1688 popped=1158 maxQueue=713 reported=100 readsP=243 readsQ=817 hash=1efe5fa276f32a59",
	"tallP/EVN/k=100/Linf/buf=16": "inserted=1688 popped=1158 maxQueue=713 reported=100 readsP=239 readsQ=11 hash=1efe5fa276f32a59",
	"tallP/EVN/k=0/L2/buf=0":      "inserted=13754 popped=5852 maxQueue=7916 reported=3000 readsP=592 readsQ=2262 hash=7671d6fda5e3b2bb",
	"tallP/EVN/k=0/L2/buf=16":     "inserted=13754 popped=5852 maxQueue=7916 reported=3000 readsP=578 readsQ=11 hash=7671d6fda5e3b2bb",
	"tallP/EVN/k=0/L1/buf=0":      "inserted=15458 popped=6200 maxQueue=9267 reported=3000 readsP=664 readsQ=2538 hash=ee379e98957bf39a",
	"tallP/EVN/k=0/L1/buf=16":     "inserted=15458 popped=6200 maxQueue=9267 reported=3000 readsP=646 readsQ=12 hash=ee379e98957bf39a",
	"tallP/EVN/k=0/Linf/buf=0":    "inserted=12996 popped=5699 maxQueue=7302 reported=3000 readsP=562 readsQ=2139 hash=c75964865369420a",
	"tallP/EVN/k=0/Linf/buf=16":   "inserted=12996 popped=5699 maxQueue=7302 reported=3000 readsP=550 readsQ=11 hash=c75964865369420a",
	"tallP/SML/k=1/L2/buf=0":      "inserted=149 popped=65 maxQueue=96 reported=1 readsP=65 readsQ=24 hash=21a25742ed080488",
	"tallP/SML/k=1/L2/buf=16":     "inserted=149 popped=65 maxQueue=96 reported=1 readsP=51 readsQ=10 hash=21a25742ed080488",
	"tallP/SML/k=1/L1/buf=0":      "inserted=158 popped=70 maxQueue=103 reported=1 readsP=70 readsQ=24 hash=ae46fffde55684d7",
	"tallP/SML/k=1/L1/buf=16":     "inserted=158 popped=70 maxQueue=103 reported=1 readsP=56 readsQ=10 hash=ae46fffde55684d7",
	"tallP/SML/k=1/Linf/buf=0":    "inserted=145 popped=65 maxQueue=92 reported=1 readsP=65 readsQ=24 hash=23cc46194e811837",
	"tallP/SML/k=1/Linf/buf=16":   "inserted=145 popped=65 maxQueue=92 reported=1 readsP=51 readsQ=10 hash=23cc46194e811837",
	"tallP/SML/k=100/L2/buf=0":    "inserted=952 popped=262 maxQueue=780 reported=100 readsP=163 readsQ=30 hash=51872638f277c014",
	"tallP/SML/k=100/L2/buf=16":   "inserted=952 popped=262 maxQueue=780 reported=100 readsP=144 readsQ=11 hash=51872638f277c014",
	"tallP/SML/k=100/L1/buf=0":    "inserted=955 popped=278 maxQueue=785 reported=100 readsP=179 readsQ=30 hash=090d0efe69f3cb41",
	"tallP/SML/k=100/L1/buf=16":   "inserted=955 popped=278 maxQueue=785 reported=100 readsP=156 readsQ=11 hash=090d0efe69f3cb41",
	"tallP/SML/k=100/Linf/buf=0":  "inserted=953 popped=257 maxQueue=777 reported=100 readsP=158 readsQ=30 hash=1efe5fa276f32a59",
	"tallP/SML/k=100/Linf/buf=16": "inserted=953 popped=257 maxQueue=777 reported=100 readsP=142 readsQ=11 hash=1efe5fa276f32a59",
	"tallP/SML/k=0/L2/buf=0":      "inserted=6582 popped=4236 maxQueue=2348 reported=3000 readsP=1237 readsQ=57 hash=7671d6fda5e3b2bb",
	"tallP/SML/k=0/L2/buf=16":     "inserted=6582 popped=4236 maxQueue=2348 reported=3000 readsP=1162 readsQ=11 hash=7671d6fda5e3b2bb",
	"tallP/SML/k=0/L1/buf=0":      "inserted=7085 popped=4327 maxQueue=2765 reported=3000 readsP=1328 readsQ=65 hash=ee379e98957bf39a",
	"tallP/SML/k=0/L1/buf=16":     "inserted=7085 popped=4327 maxQueue=2765 reported=3000 readsP=1233 readsQ=12 hash=ee379e98957bf39a",
	"tallP/SML/k=0/Linf/buf=0":    "inserted=6472 popped=4219 maxQueue=2261 reported=3000 readsP=1220 readsQ=56 hash=c75964865369420a",
	"tallP/SML/k=0/Linf/buf=16":   "inserted=6472 popped=4219 maxQueue=2261 reported=3000 readsP=1173 readsQ=11 hash=c75964865369420a",
	"tallQ/BAS/k=1/L2/buf=0":      "inserted=245 popped=153 maxQueue=103 reported=1 readsP=11 readsQ=143 hash=f6a80d8b8c0f9314",
	"tallQ/BAS/k=1/L2/buf=16":     "inserted=245 popped=153 maxQueue=103 reported=1 readsP=10 readsQ=57 hash=f6a80d8b8c0f9314",
	"tallQ/BAS/k=1/L1/buf=0":      "inserted=263 popped=160 maxQueue=116 reported=1 readsP=11 readsQ=150 hash=6da04c089eeda93b",
	"tallQ/BAS/k=1/L1/buf=16":     "inserted=263 popped=160 maxQueue=116 reported=1 readsP=10 readsQ=63 hash=6da04c089eeda93b",
	"tallQ/BAS/k=1/Linf/buf=0":    "inserted=232 popped=153 maxQueue=90 reported=1 readsP=11 readsQ=143 hash=e8a0cc565fbb9413",
	"tallQ/BAS/k=1/Linf/buf=16":   "inserted=232 popped=153 maxQueue=90 reported=1 readsP=10 readsQ=57 hash=e8a0cc565fbb9413",
	"tallQ/BAS/k=100/L2/buf=0":    "inserted=958 popped=362 maxQueue=686 reported=100 readsP=12 readsQ=252 hash=03fbd5b481a1c7c4",
	"tallQ/BAS/k=100/L2/buf=16":   "inserted=958 popped=362 maxQueue=686 reported=100 readsP=11 readsQ=162 hash=03fbd5b481a1c7c4",
	"tallQ/BAS/k=100/L1/buf=0":    "inserted=964 popped=382 maxQueue=691 reported=100 readsP=12 readsQ=272 hash=350ed8290624d561",
	"tallQ/BAS/k=100/L1/buf=16":   "inserted=964 popped=382 maxQueue=691 reported=100 readsP=11 readsQ=176 hash=350ed8290624d561",
	"tallQ/BAS/k=100/Linf/buf=0":  "inserted=960 popped=357 maxQueue=684 reported=100 readsP=12 readsQ=247 hash=352b1bfb5e0bfd1d",
	"tallQ/BAS/k=100/Linf/buf=16": "inserted=960 popped=357 maxQueue=684 reported=100 readsP=11 readsQ=159 hash=352b1bfb5e0bfd1d",
	"tallQ/BAS/k=0/L2/buf=0":      "inserted=6394 popped=4416 maxQueue=1986 reported=3000 readsP=12 readsQ=1406 hash=8a2bff3c8a17ce5f",
	"tallQ/BAS/k=0/L2/buf=16":     "inserted=6394 popped=4416 maxQueue=1986 reported=3000 readsP=11 readsQ=1256 hash=8a2bff3c8a17ce5f",
	"tallQ/BAS/k=0/L1/buf=0":      "inserted=6887 popped=4531 maxQueue=2385 reported=3000 readsP=13 readsQ=1520 hash=02266552e95ec31a",
	"tallQ/BAS/k=0/L1/buf=16":     "inserted=6887 popped=4531 maxQueue=2385 reported=3000 readsP=12 readsQ=1344 hash=02266552e95ec31a",
	"tallQ/BAS/k=0/Linf/buf=0":    "inserted=6295 popped=4397 maxQueue=1906 reported=3000 readsP=12 readsQ=1387 hash=109e7ee8d9890d46",
	"tallQ/BAS/k=0/Linf/buf=16":   "inserted=6295 popped=4397 maxQueue=1906 reported=3000 readsP=11 readsQ=1261 hash=109e7ee8d9890d46",
	"tallQ/EVN/k=1/L2/buf=0":      "inserted=305 popped=254 maxQueue=63 reported=1 readsP=181 readsQ=74 hash=f6a80d8b8c0f9314",
	"tallQ/EVN/k=1/L2/buf=16":     "inserted=305 popped=254 maxQueue=63 reported=1 readsP=10 readsQ=69 hash=f6a80d8b8c0f9314",
	"tallQ/EVN/k=1/L1/buf=0":      "inserted=315 popped=261 maxQueue=71 reported=1 readsP=184 readsQ=78 hash=6da04c089eeda93b",
	"tallQ/EVN/k=1/L1/buf=16":     "inserted=315 popped=261 maxQueue=71 reported=1 readsP=10 readsQ=73 hash=6da04c089eeda93b",
	"tallQ/EVN/k=1/Linf/buf=0":    "inserted=301 popped=254 maxQueue=59 reported=1 readsP=181 readsQ=74 hash=e8a0cc565fbb9413",
	"tallQ/EVN/k=1/Linf/buf=16":   "inserted=301 popped=254 maxQueue=59 reported=1 readsP=10 readsQ=69 hash=e8a0cc565fbb9413",
	"tallQ/EVN/k=100/L2/buf=0":    "inserted=1456 popped=486 maxQueue=1070 reported=100 readsP=239 readsQ=149 hash=03fbd5b481a1c7c4",
	"tallQ/EVN/k=100/L2/buf=16":   "inserted=1456 popped=486 maxQueue=1070 reported=100 readsP=11 readsQ=142 hash=03fbd5b481a1c7c4",
	"tallQ/EVN/k=100/L1/buf=0":    "inserted=1467 popped=513 maxQueue=1085 reported=100 readsP=254 readsQ=161 hash=350ed8290624d561",
	"tallQ/EVN/k=100/L1/buf=16":   "inserted=1467 popped=513 maxQueue=1085 reported=100 readsP=11 readsQ=150 hash=350ed8290624d561",
	"tallQ/EVN/k=100/Linf/buf=0":  "inserted=1455 popped=483 maxQueue=1067 reported=100 readsP=238 readsQ=147 hash=352b1bfb5e0bfd1d",
	"tallQ/EVN/k=100/Linf/buf=16": "inserted=1455 popped=483 maxQueue=1067 reported=100 readsP=11 readsQ=141 hash=352b1bfb5e0bfd1d",
	"tallQ/EVN/k=0/L2/buf=0":      "inserted=7553 popped=4629 maxQueue=2944 reported=3000 readsP=587 readsQ=1044 hash=8a2bff3c8a17ce5f",
	"tallQ/EVN/k=0/L2/buf=16":     "inserted=7553 popped=4629 maxQueue=2944 reported=3000 readsP=11 readsQ=984 hash=8a2bff3c8a17ce5f",
	"tallQ/EVN/k=0/L1/buf=0":      "inserted=8245 popped=4779 maxQueue=3503 reported=3000 readsP=659 readsQ=1122 hash=02266552e95ec31a",
	"tallQ/EVN/k=0/L1/buf=16":     "inserted=8245 popped=4779 maxQueue=3503 reported=3000 readsP=12 readsQ=1054 hash=02266552e95ec31a",
	"tallQ/EVN/k=0/Linf/buf=0":    "inserted=7291 popped=4576 maxQueue=2723 reported=3000 readsP=557 readsQ=1021 hash=109e7ee8d9890d46",
	"tallQ/EVN/k=0/Linf/buf=16":   "inserted=7291 popped=4576 maxQueue=2723 reported=3000 readsP=11 readsQ=990 hash=109e7ee8d9890d46",
	"tallQ/SML/k=1/L2/buf=0":      "inserted=161 popped=65 maxQueue=106 reported=1 readsP=24 readsQ=65 hash=f6a80d8b8c0f9314",
	"tallQ/SML/k=1/L2/buf=16":     "inserted=161 popped=65 maxQueue=106 reported=1 readsP=10 readsQ=53 hash=f6a80d8b8c0f9314",
	"tallQ/SML/k=1/L1/buf=0":      "inserted=174 popped=70 maxQueue=116 reported=1 readsP=24 readsQ=70 hash=6da04c089eeda93b",
	"tallQ/SML/k=1/L1/buf=16":     "inserted=174 popped=70 maxQueue=116 reported=1 readsP=10 readsQ=58 hash=6da04c089eeda93b",
	"tallQ/SML/k=1/Linf/buf=0":    "inserted=149 popped=65 maxQueue=94 reported=1 readsP=24 readsQ=65 hash=e8a0cc565fbb9413",
	"tallQ/SML/k=1/Linf/buf=16":   "inserted=149 popped=65 maxQueue=94 reported=1 readsP=10 readsQ=53 hash=e8a0cc565fbb9413",
	"tallQ/SML/k=100/L2/buf=0":    "inserted=952 popped=262 maxQueue=780 reported=100 readsP=30 readsQ=163 hash=03fbd5b481a1c7c4",
	"tallQ/SML/k=100/L2/buf=16":   "inserted=952 popped=262 maxQueue=780 reported=100 readsP=11 readsQ=146 hash=03fbd5b481a1c7c4",
	"tallQ/SML/k=100/L1/buf=0":    "inserted=955 popped=278 maxQueue=785 reported=100 readsP=30 readsQ=179 hash=350ed8290624d561",
	"tallQ/SML/k=100/L1/buf=16":   "inserted=955 popped=278 maxQueue=785 reported=100 readsP=11 readsQ=158 hash=350ed8290624d561",
	"tallQ/SML/k=100/Linf/buf=0":  "inserted=953 popped=257 maxQueue=777 reported=100 readsP=30 readsQ=158 hash=352b1bfb5e0bfd1d",
	"tallQ/SML/k=100/Linf/buf=16": "inserted=953 popped=257 maxQueue=777 reported=100 readsP=11 readsQ=144 hash=352b1bfb5e0bfd1d",
	"tallQ/SML/k=0/L2/buf=0":      "inserted=6582 popped=4236 maxQueue=2348 reported=3000 readsP=57 readsQ=1237 hash=8a2bff3c8a17ce5f",
	"tallQ/SML/k=0/L2/buf=16":     "inserted=6582 popped=4236 maxQueue=2348 reported=3000 readsP=11 readsQ=1164 hash=8a2bff3c8a17ce5f",
	"tallQ/SML/k=0/L1/buf=0":      "inserted=7085 popped=4327 maxQueue=2765 reported=3000 readsP=65 readsQ=1328 hash=02266552e95ec31a",
	"tallQ/SML/k=0/L1/buf=16":     "inserted=7085 popped=4327 maxQueue=2765 reported=3000 readsP=12 readsQ=1235 hash=02266552e95ec31a",
	"tallQ/SML/k=0/Linf/buf=0":    "inserted=6472 popped=4219 maxQueue=2261 reported=3000 readsP=56 readsQ=1220 hash=109e7ee8d9890d46",
	"tallQ/SML/k=0/Linf/buf=16":   "inserted=6472 popped=4219 maxQueue=2261 reported=3000 readsP=11 readsQ=1175 hash=109e7ee8d9890d46",
	"dup/BAS/k=1/L2/buf=0":        "inserted=70 popped=22 maxQueue=53 reported=1 readsP=5 readsQ=18 hash=b10a8649e2478f8b",
	"dup/BAS/k=1/L2/buf=16":       "inserted=70 popped=22 maxQueue=53 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/BAS/k=1/L1/buf=0":        "inserted=70 popped=22 maxQueue=53 reported=1 readsP=5 readsQ=18 hash=b10a8649e2478f8b",
	"dup/BAS/k=1/L1/buf=16":       "inserted=70 popped=22 maxQueue=53 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/BAS/k=1/Linf/buf=0":      "inserted=70 popped=22 maxQueue=53 reported=1 readsP=5 readsQ=18 hash=b10a8649e2478f8b",
	"dup/BAS/k=1/Linf/buf=16":     "inserted=70 popped=22 maxQueue=53 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/BAS/k=100/L2/buf=0":      "inserted=1650 popped=949 maxQueue=704 reported=100 readsP=62 readsQ=789 hash=6be12e522104ce69",
	"dup/BAS/k=100/L2/buf=16":     "inserted=1650 popped=949 maxQueue=704 reported=100 readsP=61 readsQ=80 hash=6be12e522104ce69",
	"dup/BAS/k=100/L1/buf=0":      "inserted=1662 popped=949 maxQueue=716 reported=100 readsP=62 readsQ=789 hash=6be12e522104ce69",
	"dup/BAS/k=100/L1/buf=16":     "inserted=1662 popped=949 maxQueue=716 reported=100 readsP=61 readsQ=80 hash=6be12e522104ce69",
	"dup/BAS/k=100/Linf/buf=0":    "inserted=1642 popped=949 maxQueue=695 reported=100 readsP=62 readsQ=789 hash=6be12e522104ce69",
	"dup/BAS/k=100/Linf/buf=16":   "inserted=1642 popped=949 maxQueue=695 reported=100 readsP=61 readsQ=80 hash=6be12e522104ce69",
	"dup/BAS/k=0/L2/buf=0":        "inserted=11923 popped=5688 maxQueue=6480 reported=3000 readsP=88 readsQ=2602 hash=487803b5f5f7ad70",
	"dup/BAS/k=0/L2/buf=16":       "inserted=11923 popped=5688 maxQueue=6480 reported=3000 readsP=87 readsQ=687 hash=487803b5f5f7ad70",
	"dup/BAS/k=0/L1/buf=0":        "inserted=13359 popped=6004 maxQueue=7361 reported=3000 readsP=88 readsQ=2918 hash=d2d5bab73e3a1dac",
	"dup/BAS/k=0/L1/buf=16":       "inserted=13359 popped=6004 maxQueue=7361 reported=3000 readsP=87 readsQ=734 hash=d2d5bab73e3a1dac",
	"dup/BAS/k=0/Linf/buf=0":      "inserted=11597 popped=5626 maxQueue=6093 reported=3000 readsP=88 readsQ=2540 hash=a19c6817278a498e",
	"dup/BAS/k=0/Linf/buf=16":     "inserted=11597 popped=5626 maxQueue=6093 reported=3000 readsP=87 readsQ=539 hash=a19c6817278a498e",
	"dup/EVN/k=1/L2/buf=0":        "inserted=64 popped=21 maxQueue=47 reported=1 readsP=7 readsQ=15 hash=b10a8649e2478f8b",
	"dup/EVN/k=1/L2/buf=16":       "inserted=64 popped=21 maxQueue=47 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/EVN/k=1/L1/buf=0":        "inserted=64 popped=21 maxQueue=47 reported=1 readsP=7 readsQ=15 hash=b10a8649e2478f8b",
	"dup/EVN/k=1/L1/buf=16":       "inserted=64 popped=21 maxQueue=47 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/EVN/k=1/Linf/buf=0":      "inserted=64 popped=21 maxQueue=47 reported=1 readsP=7 readsQ=15 hash=b10a8649e2478f8b",
	"dup/EVN/k=1/Linf/buf=16":     "inserted=64 popped=21 maxQueue=47 reported=1 readsP=4 readsQ=5 hash=b10a8649e2478f8b",
	"dup/EVN/k=100/L2/buf=0":      "inserted=929 popped=481 maxQueue=450 reported=100 readsP=140 readsQ=243 hash=34175a8e602282bc",
	"dup/EVN/k=100/L2/buf=16":     "inserted=929 popped=481 maxQueue=450 reported=100 readsP=61 readsQ=73 hash=34175a8e602282bc",
	"dup/EVN/k=100/L1/buf=0":      "inserted=939 popped=481 maxQueue=460 reported=100 readsP=140 readsQ=243 hash=34175a8e602282bc",
	"dup/EVN/k=100/L1/buf=16":     "inserted=939 popped=481 maxQueue=460 reported=100 readsP=61 readsQ=73 hash=34175a8e602282bc",
	"dup/EVN/k=100/Linf/buf=0":    "inserted=937 popped=481 maxQueue=458 reported=100 readsP=140 readsQ=243 hash=34175a8e602282bc",
	"dup/EVN/k=100/Linf/buf=16":   "inserted=937 popped=481 maxQueue=458 reported=100 readsP=61 readsQ=73 hash=34175a8e602282bc",
	"dup/EVN/k=0/L2/buf=0":        "inserted=8679 popped=4921 maxQueue=4000 reported=3000 readsP=496 readsQ=1427 hash=39db054b26ac2268",
	"dup/EVN/k=0/L2/buf=16":       "inserted=8679 popped=4921 maxQueue=4000 reported=3000 readsP=305 readsQ=618 hash=39db054b26ac2268",
	"dup/EVN/k=0/L1/buf=0":        "inserted=8875 popped=4967 maxQueue=4030 reported=3000 readsP=486 readsQ=1483 hash=45881d32edcc2d45",
	"dup/EVN/k=0/L1/buf=16":       "inserted=8875 popped=4967 maxQueue=4030 reported=3000 readsP=288 readsQ=618 hash=45881d32edcc2d45",
	"dup/EVN/k=0/Linf/buf=0":      "inserted=8193 popped=4816 maxQueue=3393 reported=3000 readsP=453 readsQ=1365 hash=1d527d5e580f725e",
	"dup/EVN/k=0/Linf/buf=16":     "inserted=8193 popped=4816 maxQueue=3393 reported=3000 readsP=247 readsQ=496 hash=1d527d5e580f725e",
	"dup/SML/k=1/L2/buf=0":        "inserted=65 popped=7 maxQueue=59 reported=1 readsP=7 readsQ=7 hash=b10a8649e2478f8b",
	"dup/SML/k=1/L2/buf=16":       "inserted=65 popped=7 maxQueue=59 reported=1 readsP=4 readsQ=6 hash=b10a8649e2478f8b",
	"dup/SML/k=1/L1/buf=0":        "inserted=66 popped=7 maxQueue=60 reported=1 readsP=7 readsQ=7 hash=b10a8649e2478f8b",
	"dup/SML/k=1/L1/buf=16":       "inserted=66 popped=7 maxQueue=60 reported=1 readsP=4 readsQ=6 hash=b10a8649e2478f8b",
	"dup/SML/k=1/Linf/buf=0":      "inserted=67 popped=7 maxQueue=61 reported=1 readsP=7 readsQ=7 hash=b10a8649e2478f8b",
	"dup/SML/k=1/Linf/buf=16":     "inserted=67 popped=7 maxQueue=61 reported=1 readsP=4 readsQ=6 hash=b10a8649e2478f8b",
	"dup/SML/k=100/L2/buf=0":      "inserted=657 popped=239 maxQueue=420 reported=100 readsP=140 readsQ=140 hash=34175a8e602282bc",
	"dup/SML/k=100/L2/buf=16":     "inserted=657 popped=239 maxQueue=420 reported=100 readsP=61 readsQ=79 hash=34175a8e602282bc",
	"dup/SML/k=100/L1/buf=0":      "inserted=666 popped=239 maxQueue=429 reported=100 readsP=140 readsQ=140 hash=34175a8e602282bc",
	"dup/SML/k=100/L1/buf=16":     "inserted=666 popped=239 maxQueue=429 reported=100 readsP=61 readsQ=79 hash=34175a8e602282bc",
	"dup/SML/k=100/Linf/buf=0":    "inserted=665 popped=239 maxQueue=428 reported=100 readsP=140 readsQ=140 hash=34175a8e602282bc",
	"dup/SML/k=100/Linf/buf=16":   "inserted=665 popped=239 maxQueue=428 reported=100 readsP=61 readsQ=79 hash=34175a8e602282bc",
	"dup/SML/k=0/L2/buf=0":        "inserted=10033 popped=3495 maxQueue=7006 reported=3000 readsP=496 readsQ=496 hash=48a6d94940d9ec5d",
	"dup/SML/k=0/L2/buf=16":       "inserted=10033 popped=3495 maxQueue=7006 reported=3000 readsP=303 readsQ=328 hash=48a6d94940d9ec5d",
	"dup/SML/k=0/L1/buf=0":        "inserted=9875 popped=3485 maxQueue=7018 reported=3000 readsP=486 readsQ=486 hash=0c3558b8560f3228",
	"dup/SML/k=0/L1/buf=16":       "inserted=9875 popped=3485 maxQueue=7018 reported=3000 readsP=284 readsQ=319 hash=0c3558b8560f3228",
	"dup/SML/k=0/Linf/buf=0":      "inserted=9137 popped=3452 maxQueue=6113 reported=3000 readsP=453 readsQ=453 hash=35791fc13b203a54",
	"dup/SML/k=0/Linf/buf=16":     "inserted=9137 popped=3452 maxQueue=6113 reported=3000 readsP=244 readsQ=267 hash=35791fc13b203a54",
}
