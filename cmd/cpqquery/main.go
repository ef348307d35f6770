// Command cpqquery runs closest-pair queries over two CSV point files,
// printing the result pairs and the cost statistics. It is the
// command-line face of the library's public API.
//
// Usage:
//
//	cpqquery -p sites.csv -q resorts.csv -k 10
//	cpqquery -p a.csv -q b.csv -k 100 -algorithm STD -buffer 128
//	cpqquery -p a.csv -q b.csv -k 5 -incremental SML
//	cpqquery -p a.csv -self -k 5
//	cpqquery -p a.csv -q b.csv -semi
//	cpqquery -p a.csv -q b.csv -k 100 -watch
//	cpqquery -p a.csv -q b.csv -k 10 -parallel 4
//	cpqquery -p a.csv -q b.csv -k 10 -explain
//	cpqquery -p a.csv -q b.csv -k 10 -explain-json
//	cpqquery -p a.csv -self -k 5 -explain
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	cpq "repro"
	"repro/internal/dataset"
)

func main() {
	var (
		pPath       = flag.String("p", "", "CSV file of the first point set (required)")
		qPath       = flag.String("q", "", "CSV file of the second point set")
		k           = flag.Int("k", 1, "number of closest pairs")
		algorithm   = flag.String("algorithm", "HEAP", "NAIVE, EXH, SIM, STD or HEAP")
		buffer      = flag.Int("buffer", 0, "total LRU buffer pages (split between the trees)")
		incremental = flag.String("incremental", "", "use the incremental baseline instead: BAS, EVN or SML")
		self        = flag.Bool("self", false, "self closest pairs within -p")
		semi        = flag.Bool("semi", false, "semi-CPQ: nearest -q point for every -p point")
		watch       = flag.Bool("watch", false, "live progress on stderr while the query runs, and a bound-convergence chart at the end")
		quiet       = flag.Bool("quiet", false, "print only statistics, not pairs")
		parallel    = flag.Int("parallel", 1, "HEAP worker count; 1 = the paper's sequential algorithm, 0 = GOMAXPROCS")
		explain     = flag.Bool("explain", false, "print the query's EXPLAIN/ANALYZE tree (plan + execution)")
		explainJSON = flag.Bool("explain-json", false, "print the EXPLAIN/ANALYZE snapshot as canonical JSON")
	)
	flag.Parse()

	if *pPath == "" {
		fatal(fmt.Errorf("-p is required"))
	}
	p := buildIndex(*pPath, *buffer/2)
	defer p.Close()

	var q *cpq.Index
	if *qPath != "" {
		q = buildIndex(*qPath, *buffer/2)
		defer q.Close()
	}

	// -watch attaches a progress tracer to the query and the indexes, and
	// a ticker goroutine that repaints one stderr status line while the
	// query runs.
	var (
		wt      *watchTracer
		qopts   []cpq.QueryOption
		watchWG sync.WaitGroup
	)
	qopts = append(qopts, cpq.WithAlgorithm(parseAlgorithm(*algorithm)))
	if *parallel != 1 {
		qopts = append(qopts, cpq.WithParallelism(*parallel))
	}
	var capture *cpq.ExplainCapture
	if *explain || *explainJSON {
		if *semi || *incremental != "" {
			fatal(fmt.Errorf("-explain supports only the K-CPQ, not -semi or -incremental"))
		}
		capture = cpq.NewExplainCapture(nil)
		qopts = append(qopts, cpq.WithExplain(capture))
	}
	watchDone := make(chan struct{})
	if *watch {
		if *incremental != "" {
			fatal(fmt.Errorf("-watch does not support -incremental"))
		}
		wt = newWatchTracer()
		qopts = append(qopts, cpq.WithTracer(wt))
		p.SetTracer(wt)
		if q != nil {
			q.SetTracer(wt)
		}
		watchWG.Add(1)
		go func() {
			defer watchWG.Done()
			wt.watch(watchDone)
		}()
	}

	start := time.Now()
	var (
		pairs []cpq.Pair
		stats cpq.Stats
		err   error
	)
	switch {
	case *self:
		pairs, stats, err = cpq.SelfKClosestPairs(p, *k, qopts...)
	case *semi:
		if q == nil {
			fatal(fmt.Errorf("-semi needs -q"))
		}
		pairs, stats, err = cpq.SemiClosestPairs(p, q, qopts...)
	case *incremental != "":
		if q == nil {
			fatal(fmt.Errorf("-incremental needs -q"))
		}
		it, e := cpq.NewIncrementalJoin(p, q,
			cpq.WithTraversal(parseTraversal(*incremental)), cpq.WithMaxPairs(*k))
		if e != nil {
			fatal(e)
		}
		for {
			pair, ok, e := it.Next()
			if e != nil {
				fatal(e)
			}
			if !ok {
				break
			}
			pairs = append(pairs, pair)
		}
		js := it.Stats()
		fmt.Printf("# incremental %s: %d pairs, %d disk accesses, max queue %d, %s\n",
			*incremental, len(pairs), js.Accesses(), js.MaxQueueSize,
			time.Since(start).Round(time.Microsecond))
		printPairs(pairs, *quiet)
		return
	default:
		if q == nil {
			fatal(fmt.Errorf("-q is required (or use -self)"))
		}
		pairs, stats, err = cpq.KClosestPairs(p, q, *k, qopts...)
	}
	close(watchDone)
	watchWG.Wait()
	if err != nil {
		fatal(err)
	}
	cache := ""
	if lookups := stats.NodeCacheHits + stats.NodeCacheMisses; lookups > 0 {
		cache = fmt.Sprintf(", node cache %d/%d (%.1f%% hit)",
			stats.NodeCacheHits, lookups, 100*stats.NodeCacheHitRatio())
	}
	fmt.Printf("# %s: %d pairs, %d disk accesses (P=%d Q=%d)%s, %s\n",
		strings.ToUpper(*algorithm), len(pairs), stats.Accesses(),
		stats.IOP.Reads, stats.IOQ.Reads, cache, time.Since(start).Round(time.Microsecond))
	if wt != nil {
		wt.render(os.Stderr)
	}
	if capture != nil {
		report := capture.Snapshot()
		if *explainJSON {
			raw, jerr := report.JSONIndent()
			if jerr != nil {
				fatal(jerr)
			}
			fmt.Println(string(raw))
		} else {
			fmt.Print(report.Render())
		}
	}
	printPairs(pairs, *quiet)
}

// watchTracer is the -watch consumer: atomic counters for the live status
// line plus a sampled bound trajectory for the final convergence chart.
// The bound arrives as a metric key (squared for the default Euclidean
// metric); it is decoded only here, at the display edge.
type watchTracer struct {
	expanded  atomic.Int64
	pruned    atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	boundBits atomic.Uint64 // Float64bits of the latest bound key

	mu      sync.Mutex
	samples []boundSample
}

type boundSample struct {
	expanded int64
	key      float64
}

func newWatchTracer() *watchTracer {
	w := &watchTracer{}
	w.boundBits.Store(math.Float64bits(math.Inf(1)))
	return w
}

func (w *watchTracer) Event(e cpq.TraceEvent) {
	switch e.Kind {
	case cpq.EvNodeExpanded:
		w.expanded.Add(1)
	case cpq.EvBoundTightened:
		w.boundBits.Store(math.Float64bits(e.New))
		w.mu.Lock()
		w.samples = append(w.samples, boundSample{w.expanded.Load(), e.New})
		w.mu.Unlock()
	case cpq.EvLeafSweepPruned:
		w.pruned.Add(e.N)
	case cpq.EvCacheHit:
		w.hits.Add(1)
	case cpq.EvCacheMiss:
		w.misses.Add(1)
	}
}

// watch repaints one stderr status line until done closes.
func (w *watchTracer) watch(done <-chan struct{}) {
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			fmt.Fprint(os.Stderr, "\r\x1b[2K")
			return
		case <-tick.C:
			bound := math.Float64frombits(w.boundBits.Load())
			b := "inf"
			if !math.IsInf(bound, 1) {
				b = fmt.Sprintf("%.9f", math.Sqrt(bound))
			}
			fmt.Fprintf(os.Stderr, "\r\x1b[2Kwatch: %d node pairs expanded, bound %s, %d point pairs sweep-pruned, cache %d/%d",
				w.expanded.Load(), b, w.pruned.Load(), w.hits.Load(), w.hits.Load()+w.misses.Load())
		}
	}
}

// render draws the bound-vs-expansions convergence chart: each column is a
// slice of the node expansions processed so far, each row a distance level
// between the first finite bound and the final one.
func (w *watchTracer) render(out *os.File) {
	w.mu.Lock()
	samples := w.samples
	w.mu.Unlock()
	if len(samples) == 0 {
		fmt.Fprintln(out, "watch: no bound tightenings recorded")
		return
	}
	const width, height = 60, 8
	hi := math.Sqrt(samples[0].key)
	lo := math.Sqrt(samples[len(samples)-1].key)
	total := w.expanded.Load()
	if total == 0 {
		total = 1
	}
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	// For each column, the tightest bound reached by that share of the
	// expansions; -1 marks columns before the first tightening.
	cols := make([]int, width)
	for i := range cols {
		cols[i] = -1
	}
	for _, s := range samples {
		c := int(float64(s.expanded) / float64(total) * float64(width))
		if c >= width {
			c = width - 1
		}
		r := int((math.Sqrt(s.key) - lo) / span * float64(height-1))
		if cols[c] == -1 || r < cols[c] {
			cols[c] = r
		}
	}
	// Carry each column's bound forward so the staircase is continuous.
	last := -1
	for i := range cols {
		if cols[i] == -1 {
			cols[i] = last
		} else {
			last = cols[i]
		}
	}
	fmt.Fprintf(out, "watch: bound convergence, %d tightenings over %d node expansions\n", len(samples), w.expanded.Load())
	for row := height - 1; row >= 0; row-- {
		label := ""
		switch row {
		case height - 1:
			label = fmt.Sprintf("%.6f", hi)
		case 0:
			label = fmt.Sprintf("%.6f", lo)
		}
		fmt.Fprintf(out, "%10s |", label)
		for _, c := range cols {
			switch {
			case c == -1:
				fmt.Fprint(out, " ")
			case c == row:
				fmt.Fprint(out, "*")
			case c < row:
				fmt.Fprint(out, " ")
			default:
				fmt.Fprint(out, ".")
			}
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "%10s +%s\n", "", strings.Repeat("-", width))
}

func buildIndex(path string, bufferPages int) *cpq.Index {
	pts, err := dataset.LoadPoints(path)
	if err != nil {
		fatal(err)
	}
	idx, err := cpq.BuildIndex(pts, cpq.WithBufferPages(bufferPages))
	if err != nil {
		fatal(err)
	}
	idx.DropCaches()
	idx.ResetIOStats()
	return idx
}

func parseAlgorithm(s string) cpq.Algorithm {
	switch strings.ToUpper(s) {
	case "NAIVE":
		return cpq.NaiveAlgorithm
	case "EXH":
		return cpq.ExhaustiveAlgorithm
	case "SIM":
		return cpq.SimpleAlgorithm
	case "STD":
		return cpq.SortedDistancesAlgorithm
	case "HEAP":
		return cpq.HeapAlgorithm
	default:
		fatal(fmt.Errorf("unknown algorithm %q", s))
		panic("unreachable")
	}
}

func parseTraversal(s string) cpq.Traversal {
	switch strings.ToUpper(s) {
	case "BAS":
		return cpq.BasicTraversal
	case "EVN":
		return cpq.EvenTraversal
	case "SML":
		return cpq.SimultaneousTraversal
	default:
		fatal(fmt.Errorf("unknown traversal %q", s))
		panic("unreachable")
	}
}

func printPairs(pairs []cpq.Pair, quiet bool) {
	if quiet {
		return
	}
	for i, p := range pairs {
		fmt.Printf("%6d  (%.6f, %.6f) #%d  --  (%.6f, %.6f) #%d  dist %.9f\n",
			i+1, p.P.X, p.P.Y, p.RefP, p.Q.X, p.Q.Y, p.RefQ, p.Dist)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpqquery:", err)
	os.Exit(1)
}
