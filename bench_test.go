package cpq

// The benchmarks below regenerate the measurements behind every figure of
// the paper at a reduced scale (5% of the paper's cardinalities by
// default, tunable via CPQ_BENCH_SCALE). Each benchmark reports the
// paper's cost metric — disk accesses per query — as a custom metric next
// to the usual ns/op. cmd/cpqbench runs the same experiments at full scale
// and prints the tables recorded in EXPERIMENTS.md.

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/incremental"
	"repro/internal/rtree"
	"repro/internal/storage"
)

var benchLab = bench.NewLab(benchScale())

func benchScale() float64 {
	if v := os.Getenv("CPQ_BENCH_SCALE"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			return f
		}
	}
	return 0.05
}

// benchPair fetches (building on first use, then cached) the tree pair of
// one workload.
func benchPair(b *testing.B, left, right bench.DataSpec, overlap float64) (*rtree.Tree, *rtree.Tree) {
	b.Helper()
	ta, tb, err := benchLab.Pair(left, right, overlap)
	if err != nil {
		b.Fatal(err)
	}
	return ta, tb
}

func uniform(n int) bench.DataSpec {
	return bench.DataSpec{Kind: bench.UniformData, N: n, Seed: int64(n)}
}

func real() bench.DataSpec { return bench.DataSpec{Kind: bench.RealData} }

// runCoreBench is the shared measurement loop: run one configuration b.N
// times and report mean disk accesses.
func runCoreBench(b *testing.B, ta, tb *rtree.Tree, k int, opts core.Options, buffer int) {
	b.Helper()
	var accesses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := benchLab.RunCore(ta, tb, k, opts, buffer)
		if err != nil {
			b.Fatal(err)
		}
		accesses += stats.Accesses()
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses")
}

func runIncrementalBench(b *testing.B, ta, tb *rtree.Tree, k int, opts incremental.Options, buffer int) {
	b.Helper()
	var accesses int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := benchLab.RunIncremental(ta, tb, k, opts, buffer)
		if err != nil {
			b.Fatal(err)
		}
		accesses += stats.Accesses()
	}
	b.ReportMetric(float64(accesses)/float64(b.N), "accesses")
}

// BenchmarkFig2TieStrategies measures the five tie-break strategies in STD
// and HEAP (Figure 2): 1-CPQ on 60K/60K uniform data, 50% overlap, B=0.
func BenchmarkFig2TieStrategies(b *testing.B) {
	ta, tb := benchPair(b, uniform(60000), bench.DataSpec{Kind: bench.UniformData, N: 60000, Seed: 60002}, 0.5)
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		for _, tie := range core.TieStrategies() {
			b.Run(fmt.Sprintf("%v/%v", alg, tie), func(b *testing.B) {
				opts := core.DefaultOptions(alg)
				opts.Tie = tie
				runCoreBench(b, ta, tb, 1, opts, 0)
			})
		}
	}
}

// BenchmarkFig3HeightStrategies measures fix-at-leaves vs fix-at-root on
// trees of different heights (Figure 3): 20K vs 80K uniform, 50% overlap.
func BenchmarkFig3HeightStrategies(b *testing.B) {
	ta, tb := benchPair(b, uniform(20000), uniform(80000), 0.5)
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		for _, hs := range []core.HeightStrategy{core.FixAtLeaves, core.FixAtRoot} {
			b.Run(fmt.Sprintf("%v/%v", alg, hs), func(b *testing.B) {
				opts := core.DefaultOptions(alg)
				opts.Height = hs
				runCoreBench(b, ta, tb, 1, opts, 0)
			})
		}
	}
}

// BenchmarkFig4Algorithms1CP measures the four 1-CP algorithms on real vs
// random data at 0% and 100% overlap (Figure 4).
func BenchmarkFig4Algorithms1CP(b *testing.B) {
	for _, overlap := range []float64{0, 1} {
		ta, tb := benchPair(b, real(), uniform(40000), overlap)
		for _, alg := range []core.Algorithm{core.Exhaustive, core.Simple, core.SortedDistances, core.Heap} {
			b.Run(fmt.Sprintf("overlap=%.0f%%/%v", overlap*100, alg), func(b *testing.B) {
				runCoreBench(b, ta, tb, 1, core.DefaultOptions(alg), 0)
			})
		}
	}
}

// BenchmarkFig5OverlapSweep measures 1-CPQ cost across the overlap axis
// (Figure 5), HEAP vs EXH.
func BenchmarkFig5OverlapSweep(b *testing.B) {
	for _, overlap := range dataset.OverlapSweep() {
		ta, tb := benchPair(b, real(), uniform(40000), overlap)
		for _, alg := range []core.Algorithm{core.Exhaustive, core.Heap} {
			b.Run(fmt.Sprintf("overlap=%.0f%%/%v", overlap*100, alg), func(b *testing.B) {
				runCoreBench(b, ta, tb, 1, core.DefaultOptions(alg), 0)
			})
		}
	}
}

// BenchmarkFig6Buffer measures the LRU-buffer effect on the four 1-CP
// algorithms (Figure 6): real vs 40K uniform, 100% overlap.
func BenchmarkFig6Buffer(b *testing.B) {
	ta, tb := benchPair(b, real(), uniform(40000), 1)
	for _, buf := range []int{0, 4, 16, 64, 256} {
		for _, alg := range []core.Algorithm{core.Exhaustive, core.Simple, core.SortedDistances, core.Heap} {
			b.Run(fmt.Sprintf("B=%d/%v", buf, alg), func(b *testing.B) {
				runCoreBench(b, ta, tb, 1, core.DefaultOptions(alg), buf)
			})
		}
	}
}

// BenchmarkFig7KCP measures the four algorithms across K (Figure 7): real
// vs uniform, 100% overlap, B=0.
func BenchmarkFig7KCP(b *testing.B) {
	ta, tb := benchPair(b, real(), uniform(62536), 1)
	for _, k := range []int{1, 100, 10000} {
		for _, alg := range []core.Algorithm{core.Exhaustive, core.Simple, core.SortedDistances, core.Heap} {
			b.Run(fmt.Sprintf("K=%d/%v", k, alg), func(b *testing.B) {
				runCoreBench(b, ta, tb, k, core.DefaultOptions(alg), 0)
			})
		}
	}
}

// BenchmarkFig8OverlapAndK measures STD and HEAP relative cost drivers
// across the (overlap, K) plane (Figure 8).
func BenchmarkFig8OverlapAndK(b *testing.B) {
	for _, overlap := range []float64{0, 0.25, 1} {
		ta, tb := benchPair(b, real(), uniform(62536), overlap)
		for _, k := range []int{1, 1000} {
			for _, alg := range []core.Algorithm{core.Exhaustive, core.SortedDistances, core.Heap} {
				b.Run(fmt.Sprintf("overlap=%.0f%%/K=%d/%v", overlap*100, k, alg), func(b *testing.B) {
					runCoreBench(b, ta, tb, k, core.DefaultOptions(alg), 0)
				})
			}
		}
	}
}

// BenchmarkFig9BufferAndK measures STD and HEAP across the (buffer, K)
// plane (Figure 9): disjoint workspaces.
func BenchmarkFig9BufferAndK(b *testing.B) {
	ta, tb := benchPair(b, real(), uniform(62536), 0)
	for _, buf := range []int{0, 16, 256} {
		for _, k := range []int{1, 1000} {
			for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
				b.Run(fmt.Sprintf("B=%d/K=%d/%v", buf, k, alg), func(b *testing.B) {
					runCoreBench(b, ta, tb, k, core.DefaultOptions(alg), buf)
				})
			}
		}
	}
}

// BenchmarkFig10Incremental measures the incremental EVN and SML against
// STD and HEAP (Figure 10): real vs uniform, both overlaps, B=0.
func BenchmarkFig10Incremental(b *testing.B) {
	for _, overlap := range []float64{0, 1} {
		ta, tb := benchPair(b, real(), uniform(62536), overlap)
		for _, k := range []int{10, 1000} {
			for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
				b.Run(fmt.Sprintf("overlap=%.0f%%/K=%d/%v", overlap*100, k, alg), func(b *testing.B) {
					runCoreBench(b, ta, tb, k, core.DefaultOptions(alg), 0)
				})
			}
			for _, trav := range []incremental.Traversal{incremental.Even, incremental.Simultaneous} {
				b.Run(fmt.Sprintf("overlap=%.0f%%/K=%d/%v", overlap*100, k, trav), func(b *testing.B) {
					runIncrementalBench(b, ta, tb, k, incremental.Options{Traversal: trav}, 0)
				})
			}
		}
	}
}

// BenchmarkKPruning is the Section 3.8 ablation: the MAXMAXDIST prefix
// rule vs the plain K-heap-top bound.
func BenchmarkKPruning(b *testing.B) {
	ta, tb := benchPair(b, real(), uniform(62536), 1)
	for _, rule := range []core.KPruning{core.KPruneMaxMax, core.KPruneHeapTop} {
		b.Run(rule.String(), func(b *testing.B) {
			opts := core.DefaultOptions(core.Heap)
			opts.KPrune = rule
			runCoreBench(b, ta, tb, 1000, opts, 0)
		})
	}
}

// BenchmarkBuild compares the two index construction paths on the same
// data (the build ablation of DESIGN.md).
func BenchmarkBuild(b *testing.B) {
	pts := dataset.Uniform(99, benchLab.ScaledN(40000))
	items := make([]rtree.Item, len(pts))
	for i, p := range pts {
		items[i] = rtree.Item{Rect: p.Rect(), Ref: int64(i)}
	}
	b.Run("insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := storage.NewBufferPool(storage.NewMemFile(1024), 512)
			tr, err := rtree.New(pool, rtree.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			for j, p := range pts {
				if err := tr.InsertPoint(p, int64(j)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("bulk-str", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pool := storage.NewBufferPool(storage.NewMemFile(1024), 512)
			tr, err := rtree.New(pool, rtree.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.BulkLoad(items, 0.7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPublicAPI measures the end-to-end facade: BuildIndex plus a
// K-CPQ through the public API.
func BenchmarkPublicAPI(b *testing.B) {
	pts := dataset.Uniform(123, 5000)
	qts := dataset.Uniform(124, 5000)
	p, err := BuildIndex(pts)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(qts)
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := KClosestPairs(p, q, 10); err != nil {
			b.Fatal(err)
		}
	}
}
