// Command cpqbench regenerates the tables and figures of the paper's
// experimental study (Sections 4 and 5). Each figure of the paper maps to
// one experiment; see DESIGN.md for the full index. Timings, allocation
// and per-layer costs are measured by the benchmark instead
// (`go run -C benchmark .`, benchmark/README.md).
//
// Usage:
//
//	cpqbench                       # run every experiment at full scale
//	cpqbench -experiment fig4      # one experiment
//	cpqbench -quick                # 1/10 cardinalities (smoke run)
//	cpqbench -scale 0.25           # custom scale
//	cpqbench -parallel 4           # 4 HEAP workers (0 = GOMAXPROCS)
//	cpqbench -explain              # capture EXPLAIN per query, print the last query's tree
//	cpqbench -timeout 2m           # wall-clock budget; exits 3 with partial totals
//	cpqbench -trace trace.jsonl    # write every query's trace events as JSON lines
//	cpqbench -metrics-addr :9090   # serve /metrics (Prometheus text) and /debug/vars
//	cpqbench -pprof                # with -metrics-addr, also mount /debug/pprof/
//	cpqbench -json                 # one JSON summary object per experiment
//	cpqbench -list                 # list experiments
//	cpqbench -out results.txt      # also write output to a file
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// summary is the -json record emitted per experiment: wall time plus the
// aggregated statistics of every query the experiment ran.
type summary struct {
	Experiment string       `json:"experiment"`
	Title      string       `json:"title"`
	Parallel   int          `json:"parallel"`
	WallMS     float64      `json:"wall_ms"`
	Totals     bench.Totals `json:"totals"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: 0 on success, 1 on a failed run, 2 on a
// bad command line, 3 when the -timeout budget ran out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpqbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "experiment to run (default: all); see -list")
		quick      = fs.Bool("quick", false, "scale cardinalities down to 1/10 for a fast smoke run")
		scale      = fs.Float64("scale", 1.0, "cardinality scale factor (1.0 = the paper's sizes)")
		parallel   = fs.Int("parallel", 1, "HEAP worker count for experiments that don't pick their own; 1 = the paper's sequential algorithm, 0 = GOMAXPROCS")
		explainOn  = fs.Bool("explain", false, "attach an EXPLAIN capture to every query and print the last query's plan+execution tree at the end")
		traceFile  = fs.String("trace", "", "write every query's trace events to this file as JSON lines")
		metricsAt  = fs.String("metrics-addr", "", "serve engine metrics on this address (/metrics Prometheus text, /debug/vars expvar)")
		pprofOn    = fs.Bool("pprof", false, "with -metrics-addr, also mount net/http/pprof under /debug/pprof/")
		jsonOut    = fs.Bool("json", false, "emit one JSON summary per experiment on stdout (tables go only to -out)")
		list       = fs.Bool("list", false, "list available experiments and exit")
		out        = fs.String("out", "", "also write the report to this file")
		timeout    = fs.Duration("timeout", 0, "wall-clock budget for the whole run; queries observe it via context and the run exits 3 with partial totals (0 = none)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cpqbench:", err)
		return 1
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name, e.Title)
		}
		return 0
	}

	s := *scale
	if *quick {
		s = 0.1
	}
	lab := bench.NewLab(s)
	lab.Explain = *explainOn

	if *timeout > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		lab.Ctx = ctx
	}

	workers := *parallel
	lab.Parallelism = workers
	if workers <= 0 {
		lab.Parallelism = core.AutoParallelism
		workers = runtime.GOMAXPROCS(0)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		tracer := obs.NewJSONLWriter(f)
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(stderr, "cpqbench: trace:", err)
			}
		}()
		lab.Tracer = tracer
	}
	if *metricsAt != "" {
		reg := obs.Default()
		lab.Metrics = obs.NewEngineMetrics(reg)
		reg.PublishExpvar("cpq")
		mux := obs.NewServeMux(reg, *pprofOn)
		go func() {
			if err := http.ListenAndServe(*metricsAt, mux); err != nil {
				fmt.Fprintln(stderr, "cpqbench: metrics server:", err)
			}
		}()
		fmt.Fprintf(stderr, "cpqbench: serving metrics on %s/metrics\n", *metricsAt)
	} else if *pprofOn {
		return fail(fmt.Errorf("-pprof requires -metrics-addr"))
	}

	// In -json mode stdout carries only the JSON records; the human tables
	// go to the -out file if one was given, and are dropped otherwise.
	w := stdout
	if *jsonOut {
		w = io.Discard
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if *jsonOut {
			w = f
		} else {
			w = io.MultiWriter(stdout, f)
		}
	}

	toRun := bench.Experiments()
	if *experiment != "" {
		toRun = nil
		for _, name := range strings.Split(*experiment, ",") {
			e, ok := bench.ByName(strings.TrimSpace(name))
			if !ok {
				return fail(fmt.Errorf("unknown experiment %q; available: %s",
					name, strings.Join(bench.Names(), ", ")))
			}
			toRun = append(toRun, e)
		}
	}

	fmt.Fprintf(w, "cpqbench — Closest Pair Queries in Spatial Databases (SIGMOD 2000) reproduction\n")
	fmt.Fprintf(w, "scale %.3g; page size 1KB, M=21, m=7; disk accesses = buffer misses (B/2 pages per tree)\n\n", s)

	enc := json.NewEncoder(stdout)
	start := time.Now()
	for _, e := range toRun {
		fmt.Fprintf(w, "=== %s: %s ===\n\n", e.Name, e.Title)
		lab.ResetTotals()
		expStart := time.Now()
		if err := e.Run(lab, w); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				t := lab.Totals()
				fmt.Fprintf(stderr,
					"cpqbench: %s: wall-clock budget of %s exhausted after %s; partial totals: %d queries, %d disk accesses, %d node pairs\n",
					e.Name, *timeout, time.Since(start).Round(time.Millisecond),
					t.Queries, t.Accesses, t.NodePairs)
				return 3
			}
			return fail(fmt.Errorf("%s: %w", e.Name, err))
		}
		if *jsonOut {
			if err := enc.Encode(summary{
				Experiment: e.Name,
				Title:      e.Title,
				Parallel:   workers,
				WallMS:     float64(time.Since(expStart).Microseconds()) / 1000,
				Totals:     lab.Totals(),
			}); err != nil {
				return fail(err)
			}
		}
	}
	fmt.Fprintf(w, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))

	if snap := lab.LastExplain(); snap != nil {
		fmt.Fprintf(w, "\nEXPLAIN of the last query:\n%s", snap.Render())
	}
	return 0
}
