package lint

import (
	"fmt"
	"go/ast"
	"strings"
)

// ObsHooks enforces the observability emission discipline in the engine's
// hot paths: tracer and metric emissions are free when disabled only
// because every call to an emitting method of repro/internal/obs sits
// behind an explicit nil check. A bare emission compiles and works, but
// it either panics on the nil default or silently moves event-struct
// construction and argument evaluation onto the always-taken path; this
// check turns the convention into a build failure.
//
// A call is accepted in either of two shapes:
//
//   - the enclosing function leads with `if x == nil { return ... }`,
//     where x is the emitting value (the helper pattern used by
//     internal/core/trace.go and friends), or
//   - the call sits inside the body of an `if x != nil { ... }` block.
//
// In both shapes x must be the call's receiver chain or a dotted prefix
// of it (`j.opts.Metrics` guards `j.opts.Metrics.WorkerUtilization
// .Observe`). Receivers that are not plain selector chains (a call
// result, an index expression) cannot be matched against a guard and are
// always flagged: bind them to a variable and guard that.
type ObsHooks struct {
	// Scopes are the import-path fragments of the hot-path packages.
	Scopes []string
	// Methods are the emitting method names of the obs package.
	Methods map[string]bool
}

// NewObsHooks returns the check configured for the engine's hot-path
// packages and the obs layer's emitting methods: Tracer.Event (the
// explain.Capture implementation included), Span.Emit/End, and the metric
// mutators Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe. Aggregating
// consumers (EngineMetrics.Record, SlowQueryLog.Record) and the explain
// capture's structured mutators (SetPlan, Phase, SetResult) are nil-safe
// by contract and not flagged.
func NewObsHooks() *ObsHooks {
	return &ObsHooks{
		Scopes: []string{"internal/core", "internal/rtree", "internal/storage"},
		Methods: map[string]bool{
			"Event":   true,
			"Emit":    true,
			"End":     true,
			"Inc":     true,
			"Add":     true,
			"Set":     true,
			"Observe": true,
		},
	}
}

// Name implements Check.
func (c *ObsHooks) Name() string { return "obshooks" }

// Run implements Check.
func (c *ObsHooks) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if !pathInScope(pkg.ImportPath, c.Scopes) {
			continue
		}
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				leading := leadingNilGuard(fd)
				guards := enclosingNilGuards(fd)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok || !c.Methods[sel.Sel.Name] {
						return true
					}
					fn := staticCallee(info, call)
					if fn == nil || fn.Pkg() == nil || !obsPackage(fn.Pkg().Path()) {
						return true
					}
					recv := chainString(sel.X)
					if recv != "" {
						if leading != "" && dotPrefix(leading, recv) {
							return true
						}
						for _, g := range guards {
							if dotPrefix(g.chain, recv) &&
								g.body.Pos() <= call.Pos() && call.End() <= g.body.End() {
								return true
							}
						}
					}
					diags = append(diags, Diagnostic{
						Pos:   prog.position(call.Pos()),
						Check: c.Name(),
						Message: fmt.Sprintf(
							"unguarded obs emission %s.%s in hot-path function %s; lead the function with `if %s == nil { return }` or wrap the call in `if %s != nil`",
							exprLabel(recv), sel.Sel.Name, fd.Name.Name, exprLabel(recv), exprLabel(recv)),
					})
					return true
				})
			}
		}
	}
	return diags
}

// obsPackage reports whether path is the observability layer: the obs
// package itself or one of its sub-packages (internal/obs/explain), whose
// Tracer implementations follow the same emission discipline.
func obsPackage(path string) bool {
	return strings.HasSuffix(path, "internal/obs") ||
		strings.Contains(path, "internal/obs/")
}

// leadingNilGuard returns the guarded chain when fd's body begins with
// `if x == nil { return ... }` (in either operand order), or "".
func leadingNilGuard(fd *ast.FuncDecl) string {
	if len(fd.Body.List) == 0 {
		return ""
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) == 0 {
		return ""
	}
	if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); !ok {
		return ""
	}
	return nilComparand(ifs.Cond, "==")
}

// nilGuard pairs an `if x != nil` condition chain with the guarded block.
type nilGuard struct {
	chain string
	body  *ast.BlockStmt
}

// enclosingNilGuards collects every `if x != nil` statement of fd whose
// body can shelter emissions.
func enclosingNilGuards(fd *ast.FuncDecl) []nilGuard {
	var guards []nilGuard
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if chain := nilComparand(ifs.Cond, "!="); chain != "" {
			guards = append(guards, nilGuard{chain: chain, body: ifs.Body})
		}
		return true
	})
	return guards
}

// nilComparand returns the selector chain compared against nil with the
// given operator ("==" or "!="), or "" when the condition has another
// shape.
func nilComparand(cond ast.Expr, op string) string {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op.String() != op {
		return ""
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilLiteral(y) {
		return chainString(x)
	}
	if isNilLiteral(x) {
		return chainString(y)
	}
	return ""
}

func isNilLiteral(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// chainString renders a pure selector chain (idents joined by dots) and
// returns "" for anything else.
func chainString(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := chainString(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// dotPrefix reports whether guard names recv itself or a parent of it on
// the selector chain.
func dotPrefix(guard, recv string) bool {
	return guard == recv || strings.HasPrefix(recv, guard+".")
}

// exprLabel keeps diagnostics readable when the receiver could not be
// rendered.
func exprLabel(chain string) string {
	if chain == "" {
		return "<expr>"
	}
	return chain
}
