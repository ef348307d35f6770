// Command benchmark is the repository's one benchmark: six named
// workloads, end-to-end metrics measured through the cpq facade and
// per-layer metrics probed on twin trees, in the schema BENCHMARK.json
// declares. See README.md in this directory.
//
// It is a module of its own (go.mod in this directory, replacing the
// root module with ..), so from the repository root:
//
//	go run -C benchmark . -seed 1                       # all workloads, both passes, one report
//	go run -C benchmark . -workload disk-cold -trace 1  # one workload, traced pass + layer probes
//	go run -C benchmark . -compare a.json b.json        # gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// outDir holds everything the benchmark writes, inside the directory it
// is run from.
const outDir = ".bench_out"

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: every workload, each in its own process)")
		seed      = flag.Int64("seed", 1, "input seed; data set i is generated from 1000*seed+i")
		seconds   = flag.Float64("seconds", runSeconds, "length of the measure phase")
		trace     = flag.Int("trace", 0, "0: measure with tracing off and print the end-to-end metrics; 1: add the traced pass and the layer probes and print the per-layer metrics")
		traceOut  = flag.String("trace-out", "", "with -trace 1: where the spans go (default "+outDir+"/trace-<workload>.json)")
		report    = flag.String("report", "", "also write this run's full result (values, rounds, notes) as JSON here")
		compare   = flag.Bool("compare", false, "compare two combined reports: -compare a.json b.json")
		dump      = flag.String("dump-points", "", "write every workload's inputs in pbbs format into this directory and exit")
		printSpec = flag.Bool("print-spec", false, "print BENCHMARK.json as this binary declares it and exit")
	)
	flag.Parse()

	switch {
	case *printSpec:
		raw, err := json.MarshalIndent(buildSpec(), "", "  ")
		exitOn(err)
		fmt.Println(string(raw))
	case *dump != "":
		exitOn(dumpPoints(*dump, *seed))
	case *compare:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("usage: benchmark -compare a.json b.json"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if !ok {
			os.Exit(1)
		}
	case *name != "":
		w, ok := findWorkload(*name)
		if !ok {
			exitOn(fmt.Errorf("unknown workload %q (BENCHMARK.json names them)", *name))
		}
		if *trace != 0 && *trace != 1 {
			exitOn(fmt.Errorf("-trace takes 0 or 1"))
		}
		cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
			workers: workerCount(), dir: filepath.Join(outDir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))}
		if *traceOut == "" {
			*traceOut = filepath.Join(outDir, "trace-"+w.name+".json")
		}
		exitOn(runOne(cfg, *traceOut, *report))
	default:
		exitOn(runAll(*seed, *seconds))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// workerCount is W: the cores the benchmark uses, at most 4.
func workerCount() int { return min(runtime.NumCPU(), 4) }

// runReport is the full result of one run, the unit of the combined report.
type runReport struct {
	Workload   string                  `json:"workload"`
	Seed       int64                   `json:"seed"`
	Trace      int                     `json:"trace"`
	Seconds    float64                 `json:"seconds"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	Points     int                     `json:"points_per_set"`
	InputHash  string                  `json:"input_hash"`
	Samples    int                     `json:"samples"`
	Correct    bool                    `json:"correct"`
	Attempted  int                     `json:"attempted"`
	Failed     int                     `json:"failed"`
	Notes      []string                `json:"notes,omitempty"`
	Metrics    map[string]reportMetric `json:"metrics"`
}

type reportMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Rounds are the metric's values over the run's rounds (or set-ups),
	// from which -compare takes the run's own spread.
	Rounds []float64 `json:"rounds,omitempty"`
}

// report shapes an outcome for the pass it ran: the end-to-end metrics
// with tracing off, the per-layer metrics with it on.
func (o *outcome) report() (runReport, error) {
	metrics := declared(o.cfg.trace)
	traceFlag := 0
	if o.cfg.trace {
		traceFlag = 1
	}
	r := runReport{
		Workload: o.cfg.w.name, Seed: o.cfg.seed, Trace: traceFlag, Seconds: o.cfg.seconds,
		GOMAXPROCS: o.cfg.workers, Points: o.points, InputHash: o.inputHash, Samples: o.samples,
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Notes: o.notes,
		Metrics: make(map[string]reportMetric, len(metrics)),
	}
	for _, m := range metrics {
		v, ok := o.values[m.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = reportMetric{Value: v, Unit: m.Unit, Rounds: o.rounds[m.Name]}
	}
	return r, nil
}

// runOne runs one workload in this process, prints every metric by name
// with its unit, and ends with the result line the driver reads.
func runOne(cfg config, traceOut, reportPath string) error {
	out, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	rep, err := out.report()
	if err != nil {
		return err
	}
	fmt.Printf("workload %s  seed %d  inputs %s  %d x (%d x %d points)  K=%d  GOMAXPROCS=%d  %d timed queries\n",
		rep.Workload, rep.Seed, rep.InputHash, instances, rep.Points, rep.Points, cfg.w.k, rep.GOMAXPROCS, rep.Samples)
	for _, m := range declared(cfg.trace) {
		fmt.Printf("  %-36s %16.6g %s\n", m.Name, rep.Metrics[m.Name].Value, m.Unit)
	}
	if !cfg.trace {
		fmt.Printf("  %-36s %16.6g x (index bytes per 16 B point)\n", "space_per_user_byte",
			out.values["index_mb"]*1e6/float64(16*2*out.points))
	}
	for _, note := range rep.Notes {
		fmt.Println("  note:", note)
	}
	if cfg.trace && out.tracer != nil {
		if err := out.tracer.write(traceOut, rep.Workload); err != nil {
			return err
		}
		fmt.Printf("  %d spans written to %s\n", len(out.tracer.spans), traceOut)
	}
	if reportPath != "" {
		raw, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(reportPath, raw, 0o644); err != nil {
			return err
		}
	}

	type lineMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]lineMetric{}}
	for name, m := range rep.Metrics {
		line.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// combinedReport is what the all-workloads mode writes and -compare reads.
type combinedReport struct {
	Seed       int64                  `json:"seed"`
	Seconds    float64                `json:"seconds"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	GoVersion  string                 `json:"go_version"`
	Invariants []string               `json:"invariant_failures,omitempty"`
	Workloads  map[string]workloadRun `json:"workloads"`
}

type workloadRun struct {
	EndToEnd runReport `json:"end_to_end"`
	PerLayer runReport `json:"per_layer"`
}

// runAll re-executes this binary once per workload and pass, one after the
// other, so heap state and peak RSS do not leak between workloads, then
// checks the invariants that span workloads and writes the combined report
// to report-seed<seed>.json under outDir.
func runAll(seed int64, seconds float64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	outPath := filepath.Join(outDir, fmt.Sprintf("report-seed%d.json", seed))
	combined := combinedReport{Seed: seed, Seconds: seconds, GOMAXPROCS: workerCount(),
		GoVersion: runtime.Version(), Workloads: map[string]workloadRun{}}
	part := outPath + ".part"
	defer os.Remove(part)
	for _, w := range workloads {
		var run workloadRun
		for pass, dst := range []*runReport{&run.EndToEnd, &run.PerLayer} {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(pass), "-report", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("workload %s -trace %d: %w", w.name, pass, err)
			}
			raw, err := os.ReadFile(part)
			if err != nil {
				return err
			}
			if err := json.Unmarshal(raw, dst); err != nil {
				return err
			}
		}
		combined.Workloads[w.name] = run
	}
	combined.Invariants = crossInvariants(combined)
	raw, err := json.MarshalIndent(combined, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, raw, 0o644); err != nil {
		return err
	}
	fmt.Println("report written to", outPath)
	if len(combined.Invariants) > 0 {
		return fmt.Errorf("invariants failed:\n  %s", strings.Join(combined.Invariants, "\n  "))
	}
	return nil
}

// crossInvariants collects every run's own failures (each run asserts its
// single-workload invariants itself, see session.invariants) and asserts
// the one invariant that spans workloads.
func crossInvariants(c combinedReport) []string {
	var bad []string
	for _, w := range workloads {
		for _, r := range []runReport{c.Workloads[w.name].EndToEnd, c.Workloads[w.name].PerLayer} {
			if !r.Correct {
				bad = append(bad, fmt.Sprintf("%s -trace %d: %d of %d ops failed: %s", w.name, r.Trace, r.Failed, r.Attempted, strings.Join(r.Notes, "; ")))
			}
		}
	}
	// Same points, same trees, same traversal: the node pairs of the
	// in-memory and the on-disk run must be the same number.
	const nodePairs = "core.node_pairs_per_query"
	a := c.Workloads["mem-smallk"].PerLayer.Metrics[nodePairs].Value
	b := c.Workloads["disk-cold"].PerLayer.Metrics[nodePairs].Value
	if a != b {
		bad = append(bad, fmt.Sprintf("%s: %g on mem-smallk, %g on disk-cold, want equal", nodePairs, a, b))
	}
	return bad
}
