// Package lint is a from-scratch static analyzer for this repository,
// built directly on the standard library's go/parser + go/ast + go/types
// stack (no golang.org/x/tools dependency). It loads every package of the
// module from source, builds a lightweight callgraph over the typed ASTs
// and enforces the engine's cross-cutting invariants. Each check earns its
// place by a bug it catches that no test, `go test -race` or `go vet`
// catches (EXPERIMENTS.md note 18):
//
//   - sqrtfree: the pruning and traversal hot paths compare squared
//     distances; math.Sqrt is reserved for the final result-reporting
//     functions (MINMINDIST <= MINMAXDIST <= MAXMAXDIST ordering is
//     preserved by squaring, so comparisons never need the root).
//   - errprop: errors returned by the storage and R-tree I/O layers must
//     not be discarded with `_ =` or a bare call.
//   - obshooks: tracer and metric emissions in the hot-path packages must
//     sit behind an explicit nil guard (a leading `if x == nil { return }`
//     helper or an enclosing `if x != nil` block), keeping the disabled
//     observability path at zero cost.
//
// Three checks are path-sensitive: they run over the SSA-lite IR of
// package repro/internal/lint/ssa (basic blocks, dominators, reaching
// definitions) instead of matching syntax:
//
//   - lockorder: the static lock-ordering graph over the engine's
//     mutexes must be acyclic, and no two instances of one shard lock
//     may be held at once.
//   - boundmono: the parallel engine's shared pruning bound is written
//     only through its CAS-min helper; a raw store or whole-value
//     overwrite can widen the bound and lose results.
//   - deferinloop: a deferred Close/Put inside a loop releases nothing
//     until function return and so pins the whole traversal's resources.
//
// The ctxflow pass (two checks sharing interprocedural summaries over
// the callgraph; DESIGN.md §11) guards the cancellation contract:
//
//   - ctxprop: query entry points and join drivers must accept a
//     context.Context and thread it through — context.Background() is
//     allowed only in the recognized *Context delegating shims.
//   - cancelpoll: every potentially unbounded driver loop (frontier
//     expansion, heap pops, storage I/O) must poll the context on some
//     path, directly or via a summarized cancellation point such as the
//     stride-gated cancelGate.poll; gates coarser than the allowance are
//     flagged.
//
// A finding can be suppressed by the line comment
//
//	//lint:ignore <check> <reason>
//
// on the offending line or the line directly above the statement the
// finding points into (for a multi-line statement the directive sits
// above the first line); the reason is mandatory. Diagnostics print as
// "file:line: [check] message" and the
// cpqlint command exits non-zero when any survive, which is how ci.sh
// turns these conventions into build failures.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding of one check.
type Diagnostic struct {
	// Pos locates the finding; the file name is relative to the module
	// root.
	Pos token.Position
	// Check is the name of the check that produced the finding (or
	// "lint" for problems with suppression directives themselves).
	Check string
	// Message describes the violation.
	Message string
}

// String formats the diagnostic as "file:line: [check] message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Check, d.Message)
}

// Check is one analysis run over a loaded program.
type Check interface {
	// Name is the identifier used in diagnostics and ignore directives.
	Name() string
	// Run analyzes prog.Packages and returns its findings.
	Run(prog *Program) []Diagnostic
}

// Checks returns the repository's check suite with its production
// configuration.
func Checks() []Check {
	return []Check{
		NewSqrtFree(),
		NewErrProp(),
		NewLockOrder(),
		NewBoundMono(),
		NewDeferInLoop(),
		NewObsHooks(),
		NewCtxProp(),
		NewCancelPoll(),
	}
}

// CheckTiming is the wall-clock cost of one check during a
// RunWithTimings pass.
type CheckTiming struct {
	// Name is the check's name.
	Name string
	// Elapsed is the check's own Run time (loading and suppression
	// filtering are shared and not attributed).
	Elapsed time.Duration
}

// Run executes the checks over prog, applies //lint:ignore suppressions
// and returns the surviving diagnostics sorted by position.
func Run(prog *Program, checks []Check) []Diagnostic {
	diags, _ := RunWithTimings(prog, checks)
	return diags
}

// RunWithTimings is Run plus a per-check wall-clock breakdown, for the
// cpqlint -timing flag and the lint benchmark. The typed load, the
// callgraph and the per-function IR are memoized on prog, so the first
// check that needs a shared artifact pays for it and the rest ride
// along — the timings show exactly that.
func RunWithTimings(prog *Program, checks []Check) ([]Diagnostic, []CheckTiming) {
	var diags []Diagnostic
	timings := make([]CheckTiming, 0, len(checks))
	for _, c := range checks {
		start := time.Now()
		diags = append(diags, c.Run(prog)...)
		timings = append(timings, CheckTiming{Name: c.Name(), Elapsed: time.Since(start)})
	}
	// A directive may name any check of the full registry, not only the
	// selected subset — running `-checks cancelpoll` must not turn every
	// sqrtfree suppression in the tree into an "unknown check" finding.
	known := make(map[string]bool)
	for _, c := range Checks() {
		known[c.Name()] = true
	}
	diags = applyIgnores(prog, known, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return diags, timings
}

// ignoreKey identifies the scope of one suppression directive: a check
// name on one line of one file (the directive covers its own line and the
// line below).
type ignoreKey struct {
	file  string
	line  int
	check string
}

// applyIgnores drops diagnostics covered by well-formed //lint:ignore
// directives and reports malformed or unknown-check directives as
// findings of the built-in "lint" pseudo-check.
func applyIgnores(prog *Program, known map[string]bool, diags []Diagnostic) []Diagnostic {
	ignores := make(map[ignoreKey]bool)
	var problems []Diagnostic
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
					if !ok {
						continue
					}
					pos := prog.position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						problems = append(problems, Diagnostic{
							Pos:     pos,
							Check:   "lint",
							Message: `malformed directive: want "//lint:ignore <check> <reason>"`,
						})
						continue
					}
					check := fields[0]
					if !known[check] {
						problems = append(problems, Diagnostic{
							Pos:     pos,
							Check:   "lint",
							Message: fmt.Sprintf("ignore directive names unknown check %q", check),
						})
						continue
					}
					ignores[ignoreKey{pos.Filename, pos.Line, check}] = true
				}
			}
		}
	}
	starts := stmtStartLines(prog)
	kept := problems
	for _, d := range diags {
		if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Check}] ||
			ignores[ignoreKey{d.Pos.Filename, d.Pos.Line - 1, d.Check}] {
			continue
		}
		// A finding inside a multi-line statement is also covered by a
		// directive on the line above the statement's first line — the
		// only place gofmt lets a comment live for a wrapped call.
		if s, ok := starts[lineKey{d.Pos.Filename, d.Pos.Line}]; ok &&
			(ignores[ignoreKey{d.Pos.Filename, s, d.Check}] ||
				ignores[ignoreKey{d.Pos.Filename, s - 1, d.Check}]) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// lineKey addresses one source line of one file.
type lineKey struct {
	file string
	line int
}

// stmtStartLines maps every line spanned by a multi-line simple statement
// to the statement's first line. Only simple statements participate:
// extending a directive above a compound statement (for, if, ...) to its
// whole body would suppress far more than the author aimed at.
func stmtStartLines(prog *Program) map[lineKey]int {
	starts := make(map[lineKey]int)
	for _, pkg := range prog.Packages {
		walkFiles(pkg, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.AssignStmt, *ast.ExprStmt, *ast.DeferStmt, *ast.GoStmt,
				*ast.ReturnStmt, *ast.DeclStmt, *ast.SendStmt, *ast.IncDecStmt:
			default:
				return true
			}
			from := prog.position(n.Pos())
			to := prog.position(n.End())
			for l := from.Line + 1; l <= to.Line; l++ {
				starts[lineKey{from.Filename, l}] = from.Line
			}
			return true
		})
	}
	return starts
}

// pathInScope reports whether an import path falls under any of the scope
// fragments (substring match on the slash-separated path, so
// "internal/core" covers both the real package and nested fixtures).
func pathInScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// walkFiles applies fn to every node of every file of pkg.
func walkFiles(pkg *Package, fn func(n ast.Node) bool) {
	for _, file := range pkg.Files {
		ast.Inspect(file, fn)
	}
}
