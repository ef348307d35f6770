// Command cpqlint is the repository's static analyzer. It loads the
// requested packages from source (stdlib go/parser + go/types only, no
// external tooling), runs the repo-specific invariant checks and prints
// one "file:line: [check] message" diagnostic per finding, exiting with
// status 1 when any survive //lint:ignore suppression and status 2 when
// any requested package fails to load (a package that does not load is a
// package that was not linted, so load errors can never pass the gate).
// ci.sh runs `go run ./cmd/cpqlint ./...` as a hard gate over the whole
// module; that invocation is the single supported entry point.
//
// Usage:
//
//	cpqlint ./...                             # lint the whole module
//	cpqlint internal/core internal/storage    # specific package directories
//	cpqlint -checks sqrtfree,lockorder ./...  # a subset of the checks
//	cpqlint -timing -budget 30s ./...         # fail if any check runs long
//	cpqlint -list                             # list available checks
//
// The syntactic checks are sqrtfree (no math.Sqrt on pruning/traversal
// hot paths outside the result-reporting allowlist) and obshooks
// (nil-guarded observability emissions). The path-sensitive checks, which
// run on the SSA-lite IR, are lockorder (acyclic lock-ordering graph, no
// nested shard locks) and deferinloop (no deferred releases inside
// loops). See DESIGN.md §7 for the contracts the checks guard, and §11
// for the tests that guard cancellation and I/O errors instead.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
		timing     = flag.Bool("timing", false, "print a per-check wall-clock breakdown on stderr")
		budget     = flag.Duration("budget", 0, "per-check wall-clock budget; any check over it fails the run (0 = unlimited)")
		list       = flag.Bool("list", false, "list available checks and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Println(c.Name())
		}
		return
	}
	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	prog, err := lint.Load(cwd, patterns...)
	if err != nil {
		fatal(err)
	}
	diags, timings := lint.RunWithTimings(prog, checks)
	if *timing {
		var total time.Duration
		for _, t := range timings {
			fmt.Fprintf(os.Stderr, "%-18s %10s\n", t.Name, t.Elapsed.Round(time.Microsecond))
			total += t.Elapsed
		}
		fmt.Fprintf(os.Stderr, "%-18s %10s\n", "total", total.Round(time.Microsecond))
	}
	// The budget gate keeps the lint step's latency a tested property: a
	// check that regresses past the allowance fails CI the same way a
	// finding would, instead of silently stretching every build.
	var overBudget []string
	if *budget > 0 {
		for _, t := range timings {
			if t.Elapsed > *budget {
				overBudget = append(overBudget, fmt.Sprintf(
					"check %s took %s, over the %s budget",
					t.Name, t.Elapsed.Round(time.Millisecond), *budget))
			}
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	// Load failures are reported last and dominate the exit status: a
	// clean run over half the module proves nothing about the half that
	// did not type-check.
	for _, le := range prog.Failed {
		fmt.Fprintln(os.Stderr, "cpqlint: load:", le.Error())
	}
	for _, msg := range overBudget {
		fmt.Fprintln(os.Stderr, "cpqlint: budget:", msg)
	}
	switch {
	case len(prog.Failed) > 0:
		fmt.Fprintf(os.Stderr, "cpqlint: %d package(s) failed to load\n", len(prog.Failed))
		os.Exit(2)
	case len(diags) > 0:
		fmt.Fprintf(os.Stderr, "cpqlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	case len(overBudget) > 0:
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpqlint:", err)
	os.Exit(2)
}

// selectChecks resolves a -checks selection — check names, comma
// separated — against the suite. The empty selection is the default run:
// every check, so that one pass over the module (ci.sh lint) gates them
// all.
func selectChecks(selection string) ([]lint.Check, error) {
	checks := lint.Checks()
	if selection == "" {
		return checks, nil
	}
	byName := make(map[string]lint.Check, len(checks))
	for _, c := range checks {
		byName[c.Name()] = c
	}
	var selected []lint.Check
	seen := make(map[string]bool)
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (try -list)", name)
		}
		if !seen[name] {
			seen[name] = true
			selected = append(selected, c)
		}
	}
	return selected, nil
}
