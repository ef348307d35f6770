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
//	cpqquery -p a.csv -q b.csv -k 10 -parallel 4
//	cpqquery -p a.csv -q b.csv -k 10 -explain
//	cpqquery -p a.csv -q b.csv -k 10 -explain-json
//	cpqquery -p a.csv -self -k 5 -explain
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	cpq "repro"
	"repro/internal/dataset"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: 0 on success, 1 on a failed run or a
// rejected flag value, 2 on a command line the flag package rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpqquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		pPath       = fs.String("p", "", "CSV file of the first point set (required)")
		qPath       = fs.String("q", "", "CSV file of the second point set")
		k           = fs.Int("k", 1, "number of closest pairs (ignored by -semi)")
		algorithm   = fs.String("algorithm", "HEAP", "NAIVE, EXH, SIM, STD or HEAP")
		buffer      = fs.Int("buffer", 0, "total LRU buffer pages (split between the trees)")
		incremental = fs.String("incremental", "", "use the incremental baseline instead: BAS, EVN or SML")
		self        = fs.Bool("self", false, "self closest pairs within -p")
		semi        = fs.Bool("semi", false, "semi-CPQ: nearest -q point for every -p point")
		quiet       = fs.Bool("quiet", false, "print only statistics, not pairs")
		parallel    = fs.Int("parallel", 0, "HEAP worker count; 1 = the paper's sequential algorithm, 0 = the library's default (GOMAXPROCS where the task engine wins)")
		explain     = fs.Bool("explain", false, "print the query's EXPLAIN/ANALYZE tree (plan + execution)")
		explainJSON = fs.Bool("explain-json", false, "print the EXPLAIN/ANALYZE snapshot as canonical JSON")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cpqquery:", err)
		return 1
	}

	// Every flag is checked before an index is built: -k 0 would make the
	// incremental join unbounded, and -buffer is halved per tree.
	switch {
	case *pPath == "":
		return fail(errors.New("-p is required"))
	case *k < 1 && !*semi:
		return fail(fmt.Errorf("-k must be at least 1, got %d", *k))
	case *buffer < 0:
		return fail(fmt.Errorf("-buffer must be non-negative, got %d", *buffer))
	case *qPath == "" && !*self && *semi:
		return fail(errors.New("-semi needs -q"))
	case *qPath == "" && !*self && *incremental != "":
		return fail(errors.New("-incremental needs -q"))
	case *qPath == "" && !*self:
		return fail(errors.New("-q is required (or use -self)"))
	case (*explain || *explainJSON) && (*semi || *incremental != ""):
		return fail(errors.New("-explain supports only the K-CPQ, not -semi or -incremental"))
	}
	alg, err := parseAlgorithm(*algorithm)
	if err != nil {
		return fail(err)
	}
	var traversal cpq.Traversal
	if *incremental != "" {
		if traversal, err = parseTraversal(*incremental); err != nil {
			return fail(err)
		}
	}

	p, err := buildIndex(*pPath, *buffer/2)
	if err != nil {
		return fail(err)
	}
	defer p.Close()
	var q *cpq.Index
	if *qPath != "" {
		if q, err = buildIndex(*qPath, *buffer/2); err != nil {
			return fail(err)
		}
		defer q.Close()
	}

	qopts := []cpq.QueryOption{cpq.WithAlgorithm(alg), cpq.WithParallelism(*parallel)}
	var capture *cpq.ExplainCapture
	if *explain || *explainJSON {
		capture = cpq.NewExplainCapture(nil)
		qopts = append(qopts, cpq.WithExplain(capture))
	}

	start := time.Now()
	var (
		pairs []cpq.Pair
		stats cpq.Stats
	)
	switch {
	case *self:
		pairs, stats, err = cpq.SelfKClosestPairs(p, *k, qopts...)
	case *semi:
		pairs, stats, err = cpq.SemiClosestPairs(p, q, qopts...)
	case *incremental != "":
		pairs, js, err := incrementalPairs(p, q, traversal, *k)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "# incremental %s: %d pairs, %d disk accesses, max queue %d, %s\n",
			*incremental, len(pairs), js.Accesses(), js.MaxQueueSize,
			time.Since(start).Round(time.Microsecond))
		printPairs(stdout, pairs, *quiet)
		return 0
	default:
		pairs, stats, err = cpq.KClosestPairs(p, q, *k, qopts...)
	}
	if err != nil {
		return fail(err)
	}
	cache := ""
	if lookups := stats.NodeCacheHits + stats.NodeCacheMisses; lookups > 0 {
		cache = fmt.Sprintf(", node cache %d/%d (%.1f%% hit)",
			stats.NodeCacheHits, lookups, 100*stats.NodeCacheHitRatio())
	}
	fmt.Fprintf(stdout, "# %s: %d pairs, %d disk accesses (P=%d Q=%d)%s, %s\n",
		strings.ToUpper(*algorithm), len(pairs), stats.Accesses(),
		stats.IOP.Reads, stats.IOQ.Reads, cache, time.Since(start).Round(time.Microsecond))
	if capture != nil {
		report := capture.Snapshot()
		if *explainJSON {
			raw, err := report.JSONIndent()
			if err != nil {
				return fail(err)
			}
			fmt.Fprintln(stdout, string(raw))
		} else {
			fmt.Fprint(stdout, report.Render())
		}
	}
	printPairs(stdout, pairs, *quiet)
	return 0
}

// incrementalPairs streams the k closest pairs of p and q through the
// incremental join.
func incrementalPairs(p, q *cpq.Index, t cpq.Traversal, k int) ([]cpq.Pair, cpq.JoinStats, error) {
	it, err := cpq.NewIncrementalJoin(p, q, cpq.WithTraversal(t), cpq.WithMaxPairs(k))
	if err != nil {
		return nil, cpq.JoinStats{}, err
	}
	var pairs []cpq.Pair
	for {
		pair, ok, err := it.Next()
		if err != nil {
			return nil, cpq.JoinStats{}, err
		}
		if !ok {
			return pairs, it.Stats(), nil
		}
		pairs = append(pairs, pair)
	}
}

func buildIndex(path string, bufferPages int) (*cpq.Index, error) {
	pts, err := dataset.LoadPoints(path)
	if err != nil {
		return nil, err
	}
	idx, err := cpq.BuildIndex(pts, cpq.WithBufferPages(bufferPages))
	if err != nil {
		return nil, err
	}
	idx.DropCaches()
	idx.ResetIOStats()
	return idx, nil
}

func parseAlgorithm(s string) (cpq.Algorithm, error) {
	switch strings.ToUpper(s) {
	case "NAIVE":
		return cpq.NaiveAlgorithm, nil
	case "EXH":
		return cpq.ExhaustiveAlgorithm, nil
	case "SIM":
		return cpq.SimpleAlgorithm, nil
	case "STD":
		return cpq.SortedDistancesAlgorithm, nil
	case "HEAP":
		return cpq.HeapAlgorithm, nil
	}
	return 0, fmt.Errorf("unknown -algorithm %q", s)
}

func parseTraversal(s string) (cpq.Traversal, error) {
	switch strings.ToUpper(s) {
	case "BAS":
		return cpq.BasicTraversal, nil
	case "EVN":
		return cpq.EvenTraversal, nil
	case "SML":
		return cpq.SimultaneousTraversal, nil
	}
	return 0, fmt.Errorf("unknown -incremental traversal %q", s)
}

func printPairs(w io.Writer, pairs []cpq.Pair, quiet bool) {
	if quiet {
		return
	}
	for i, p := range pairs {
		fmt.Fprintf(w, "%6d  (%.6f, %.6f) #%d  --  (%.6f, %.6f) #%d  dist %.9f\n",
			i+1, p.P.X, p.P.Y, p.RefP, p.Q.X, p.Q.Y, p.RefQ, p.Dist)
	}
}
