package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

var update = flag.Bool("update", false, "rewrite golden files")

// moduleDir locates the repository root from the test's working directory
// (internal/lint).
func moduleDir(t *testing.T) string {
	t.Helper()
	mod, err := lint.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	return mod.Dir
}

// runCheck loads the given patterns relative to the module root and runs a
// single check through the full driver (including suppression handling).
func runCheck(t *testing.T, check lint.Check, patterns ...string) []lint.Diagnostic {
	t.Helper()
	prog, err := lint.Load(moduleDir(t), patterns...)
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range prog.Failed {
		t.Fatalf("fixture failed to load: %v", le)
	}
	return lint.Run(prog, []lint.Check{check})
}

// fixtures pairs each check with its fixture packages: purpose-built
// true-positive, negative and suppressed cases.
var fixtures = []struct {
	check    lint.Check
	patterns []string
}{
	{lint.NewSqrtFree(), []string{"internal/lint/testdata/src/sqrtfree/..."}},
	{lint.NewErrProp(), []string{"internal/lint/testdata/src/errprop/..."}},
	{lint.NewLockOrder(), []string{"internal/lint/testdata/src/lockorder/internal/core/pool"}},
	{lint.NewBoundMono(), []string{"internal/lint/testdata/src/boundmono/internal/core/engine"}},
	{lint.NewDeferInLoop(), []string{"internal/lint/testdata/src/deferinloop/internal/rtree/walk"}},
	{lint.NewObsHooks(), []string{"internal/lint/testdata/src/obshooks/internal/core/trace"}},
	{lint.NewCtxProp(), []string{"internal/lint/testdata/ctxflow/ctxprop/internal/core/driver"}},
	{lint.NewCancelPoll(), []string{"internal/lint/testdata/ctxflow/cancelpoll/..."}},
}

// TestGolden pins each check's behavior on its fixture package: the
// formatted diagnostics must match the committed golden file exactly
// (regenerate with `go test ./internal/lint -run Golden -update`).
func TestGolden(t *testing.T) {
	for _, tc := range fixtures {
		t.Run(tc.check.Name(), func(t *testing.T) {
			diags := runCheck(t, tc.check, tc.patterns...)
			var lines []string
			for _, d := range diags {
				lines = append(lines, d.String())
			}
			got := strings.Join(lines, "\n") + "\n"
			golden := filepath.Join(moduleDir(t), "internal/lint/testdata", tc.check.Name()+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixturesFindSomething guards against a check silently going blind:
// every fixture run must produce at least one finding of its own check.
func TestFixturesFindSomething(t *testing.T) {
	for _, tc := range fixtures {
		found := false
		for _, d := range runCheck(t, tc.check, tc.patterns...) {
			if d.Check == tc.check.Name() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no findings on its fixture package", tc.check.Name())
		}
	}
}

// TestSuppression asserts the //lint:ignore mechanics directly: the
// suppressed sqrtfree site in the fixture must not appear, while the
// unsuppressed ones must.
func TestSuppression(t *testing.T) {
	diags := runCheck(t, lint.NewSqrtFree(), "internal/lint/testdata/src/sqrtfree/...")
	for _, d := range diags {
		if strings.Contains(d.Message, "legacy") {
			t.Errorf("suppressed finding leaked: %s", d)
		}
	}
	if len(diags) != 4 {
		t.Errorf("want exactly the 4 hot-loop findings (2 prune, 2 grid/kernel), got %d: %v", len(diags), diags)
	}
}

// TestMultilineSuppression is the regression test for directives above
// statements that wrap across lines: the errprop fixture has two copies
// of the same wrapped statement, one suppressed, one not, and only the
// unsuppressed one may surface.
func TestMultilineSuppression(t *testing.T) {
	diags := runCheck(t, lint.NewErrProp(), "internal/lint/testdata/src/errprop")
	var wrapped []lint.Diagnostic
	for _, d := range diags {
		if strings.Contains(d.Message, "WritePage") {
			wrapped = append(wrapped, d)
		}
	}
	if len(wrapped) != 1 {
		t.Errorf("want exactly 1 unsuppressed wrapped-statement finding, got %d: %v", len(wrapped), wrapped)
	}
}

// TestLoadFailure asserts that a package that fails to type-check is
// reported through Program.Failed without hiding the packages that do
// load: the analyzable part of the module must still produce findings.
func TestLoadFailure(t *testing.T) {
	prog, err := lint.Load(moduleDir(t),
		"internal/lint/testdata/src/loadfail",
		"internal/lint/testdata/src/sqrtfree/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Failed) != 1 {
		t.Fatalf("want 1 load failure, got %d: %v", len(prog.Failed), prog.Failed)
	}
	if !strings.Contains(prog.Failed[0].Error(), "loadfail") {
		t.Errorf("failure does not name the broken package: %v", prog.Failed[0])
	}
	diags := lint.Run(prog, []lint.Check{lint.NewSqrtFree()})
	if len(diags) == 0 {
		t.Error("loadable packages produced no findings; the failure hid them")
	}
}

// TestCleanRepo asserts the real module lints clean with the production
// check suite — the repository's own code is one more fixture, pinned to
// zero findings.
func TestCleanRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	prog, err := lint.Load(moduleDir(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range prog.Failed {
		t.Errorf("package failed to load: %v", le)
	}
	diags := lint.Run(prog, lint.Checks())
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestRealRepoCoverage asserts the checks are actually exercising the real
// engine: the whole-module load must include the parallel engine's
// goroutine spawn and the storage pool, i.e. the clean result above is not
// an artifact of loading nothing.
func TestRealRepoCoverage(t *testing.T) {
	prog, err := lint.Load(moduleDir(t), "internal/core", "internal/storage")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Packages) != 2 {
		t.Fatalf("want 2 packages, got %d", len(prog.Packages))
	}
	for _, pkg := range prog.Packages {
		if pkg.Types == nil || len(pkg.Files) == 0 {
			t.Errorf("package %s loaded without types or files", pkg.ImportPath)
		}
	}
}

// BenchmarkLintRepo measures the full production pass over the real
// module, with the typed load hoisted out of the loop: what remains is
// the checks themselves sharing the memoized callgraph and IR, which is
// exactly what `cpqlint -timing` attributes per check.
func BenchmarkLintRepo(b *testing.B) {
	mod, err := lint.FindModule(".")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := lint.Load(mod.Dir, "./...")
	if err != nil {
		b.Fatal(err)
	}
	if len(prog.Failed) > 0 {
		b.Fatalf("load failures: %v", prog.Failed)
	}
	checks := lint.Checks()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lint.Run(prog, checks)
	}
	b.StopTimer()

	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lint.Load(mod.Dir, "./..."); err != nil {
				b.Fatal(err)
			}
		}
	})
}
