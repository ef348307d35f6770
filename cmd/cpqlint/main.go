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
//	cpqlint -checks sqrtfree,errprop ./...    # a subset of the checks
//	cpqlint -checks shareguard ./...          # a group alias expands
//	cpqlint -json ./...                       # SARIF-style JSON on stdout
//	cpqlint -timing -budget 30s ./...         # fail if any check runs long
//	cpqlint -list                             # list available checks
//
// The syntactic checks are bufferdiscipline (no BufferPool.Get/Put on
// paths reachable from goroutines — concurrent readers must use View),
// atomicfields (fields touched via sync/atomic must be atomic everywhere),
// sqrtfree (no math.Sqrt on pruning/traversal hot paths outside the
// result-reporting allowlist) and errprop (no discarded errors from the
// storage / R-tree I/O layers). The path-sensitive checks, which run on
// the SSA-lite IR, are pinleak (storage handles released on every path),
// lockorder (acyclic lock-ordering graph, no nested shard locks),
// boundmono (the parallel pruning bound only tightens) and deferinloop
// (no deferred releases inside loops). Two interprocedural groups ride
// the shared callgraph: ctxflow (ctxprop, cancelpoll, ctxleak — the
// cancellation contract of DESIGN.md §11) and shareguard (sharedfield,
// guardlock, pubimmut — the static data-race pass of DESIGN.md §12).
// See DESIGN.md §7 for the contracts the per-check analyses guard.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
)

func main() {
	var (
		checksFlag = flag.String("checks", "", "comma-separated subset of checks to run; group aliases like ctxflow expand (default: all)")
		checkAlias = flag.String("check", "", "alias for -checks")
		jsonOut    = flag.Bool("json", false, "emit findings as SARIF-style JSON on stdout")
		timing     = flag.Bool("timing", false, "print a per-check wall-clock breakdown on stderr")
		budget     = flag.Duration("budget", 0, "per-check wall-clock budget; any check over it fails the run (0 = unlimited)")
		list       = flag.Bool("list", false, "list available checks and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			fmt.Println(c.Name())
		}
		for g, names := range lint.CheckGroups() {
			fmt.Printf("%s (group: %s)\n", g, strings.Join(names, ","))
		}
		return
	}
	selection := *checksFlag
	if selection == "" {
		selection = *checkAlias
	}
	checks, err := selectChecks(selection)
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
	diags, suppressed, timings := lint.RunAll(prog, checks)
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
	if *jsonOut {
		if err := writeSARIF(os.Stdout, checks, diags, suppressed); err != nil {
			fatal(err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
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

// SARIF-style output, close enough to SARIF 2.1.0 for log viewers:
// one run, one rule per check, one result per finding.

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool       sarifTool     `json:"tool"`
	Results    []sarifResult `json:"results"`
	Properties sarifRunProps `json:"properties"`
}

// sarifRunProps is the run-level property bag; suppressed counts the
// findings dropped by //lint:ignore directives, so a log consumer can
// tell a genuinely clean run from a heavily waived one.
type sarifRunProps struct {
	Suppressed int `json:"suppressed"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID string `json:"id"`
}

type sarifResult struct {
	RuleID     string           `json:"ruleId"`
	Level      string           `json:"level"`
	Message    sarifMessage     `json:"message"`
	Locations  []sarifLocation  `json:"locations"`
	Properties sarifResultProps `json:"properties"`
}

// sarifResultProps carries the check-group alias ("ctxflow",
// "shareguard", ... or "" for ungrouped checks) so findings can be
// filtered by pass without knowing the member-check names.
type sarifResultProps struct {
	Group string `json:"group"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(w io.Writer, checks []lint.Check, diags []lint.Diagnostic, suppressed int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildSARIF(checks, diags, suppressed))
}

func buildSARIF(checks []lint.Check, diags []lint.Diagnostic, suppressed int) sarifLog {
	rules := make([]sarifRule, 0, len(checks))
	for _, c := range checks {
		rules = append(rules, sarifRule{ID: c.Name()})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Check,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.Pos.Filename},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
			Properties: sarifResultProps{Group: lint.GroupOf(d.Check)},
		})
	}
	return sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:       sarifTool{Driver: sarifDriver{Name: "cpqlint", Rules: rules}},
			Results:    results,
			Properties: sarifRunProps{Suppressed: suppressed},
		}},
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpqlint:", err)
	os.Exit(2)
}

// selectChecks resolves a -checks selection — check names and group
// aliases, comma separated — against the suite. The empty selection is the
// default run: every check, so that one pass over the module (ci.sh lint)
// gates the ctxflow and shareguard groups too.
func selectChecks(selection string) ([]lint.Check, error) {
	checks := lint.Checks()
	if selection == "" {
		return checks, nil
	}
	groups := lint.CheckGroups()
	byName := make(map[string]lint.Check, len(checks))
	for _, c := range checks {
		byName[c.Name()] = c
	}
	var selected []lint.Check
	seen := make(map[string]bool)
	for _, name := range strings.Split(selection, ",") {
		name = strings.TrimSpace(name)
		names, ok := groups[name]
		if !ok {
			names = []string{name}
		}
		for _, n := range names {
			c, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("unknown check %q (try -list)", n)
			}
			if !seen[n] {
				seen[n] = true
				selected = append(selected, c)
			}
		}
	}
	return selected, nil
}
