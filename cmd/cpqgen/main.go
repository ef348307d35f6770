// Command cpqgen generates the study's point data sets as CSV files:
// uniform sets of any cardinality and the clustered "Sequoia-substitute"
// set (see DESIGN.md for the substitution rationale).
//
// Usage:
//
//	cpqgen -kind uniform -n 60000 -seed 7 -out u60k.csv
//	cpqgen -kind real -out real.csv
//	cpqgen -kind clustered -n 10000 -overlap 0.5 -out c10k.csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/geom"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main behind an exit code: 0 on success, 1 on a failed run, 2 on a
// command line the flag package rejects.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpqgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "uniform", "data kind: uniform, clustered, real")
		n       = fs.Int("n", 10000, "number of points (ignored for -kind real)")
		seed    = fs.Int64("seed", 1, "generator seed (ignored for -kind real)")
		overlap = fs.Float64("overlap", 1.0, "workspace overlap with the unit workspace (1 = same workspace)")
		out     = fs.String("out", "", "output CSV file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "cpqgen:", err)
		return 1
	}
	if *n < 0 {
		return fail(fmt.Errorf("-n must be non-negative, got %d", *n))
	}

	var pts []geom.Point
	switch *kind {
	case "uniform":
		pts = dataset.Uniform(*seed, *n)
	case "clustered":
		pts = dataset.Clustered(*seed, *n)
	case "real":
		pts = dataset.Real()
	default:
		return fail(fmt.Errorf("unknown -kind %q (uniform, clustered, real)", *kind))
	}
	placed, err := dataset.PlaceWithOverlap(pts, *overlap)
	if err != nil {
		return fail(fmt.Errorf("-overlap: %w", err))
	}
	if *out == "" {
		if err := dataset.WritePoints(stdout, placed); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := dataset.SavePoints(*out, placed); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stderr, "wrote %d points to %s\n", len(placed), *out)
	return 0
}
