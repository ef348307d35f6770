package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// BoundMono protects the monotonicity of the parallel engine's shared
// pruning bound. The K-CPQ bound T only ever tightens (paper §5.2):
// every worker prunes against it, so a write that raises it re-admits
// node pairs that were already correctly discarded — results silently
// lose members of the true closest-pair set. The bound type therefore
// funnels all writes through two helpers: tighten (CAS-min) and store,
// which is legal only for the +Inf initialization before workers start.
//
// The check flags, outside the bound type's own methods:
//
//   - any access to the type's raw bits field (a write bypasses the
//     CAS-min discipline entirely; even a read belongs in load);
//   - a store whose argument does not resolve — through the SSA-lite
//     reaching definitions — to math.Inf(1): storing anything else is a
//     blind reset that can widen the bound;
//   - overwriting a whole value of the bound type (composite-literal or
//     copy assignment), which resets it to zero or to an arbitrary
//     snapshot.
type BoundMono struct {
	// Scopes are import-path fragments; only bound types declared in
	// these packages are protected.
	Scopes []string
	// TypeNames are the names of the tighten-only bound types.
	TypeNames []string
}

// NewBoundMono returns the check configured for core.SharedBound, the
// bound a parallel query's workers and the shard executor's joins share.
func NewBoundMono() *BoundMono {
	return &BoundMono{Scopes: []string{"internal/core"}, TypeNames: []string{"SharedBound"}}
}

// Name implements Check.
func (c *BoundMono) Name() string { return "boundmono" }

// Run implements Check.
func (c *BoundMono) Run(prog *Program) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, fs := range funcsOf(prog, pkg) {
			if c.isBoundMethod(fs) {
				continue // the helpers themselves live here
			}
			diags = append(diags, c.checkFunc(prog, fs)...)
		}
	}
	return diags
}

// boundTypeName returns the protected bound type's name when t (or its
// pointee) is one.
func (c *BoundMono) boundTypeName(t types.Type) (string, bool) {
	named := namedOf(t)
	if named == nil {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !pathInScope(obj.Pkg().Path(), c.Scopes) {
		return "", false
	}
	for _, name := range c.TypeNames {
		if obj.Name() == name {
			return name, true
		}
	}
	return "", false
}

// isBoundType reports whether t (or its pointee) is a protected bound
// type.
func (c *BoundMono) isBoundType(t types.Type) bool {
	_, ok := c.boundTypeName(t)
	return ok
}

// isBoundMethod reports whether fs is a method declared on the bound
// type itself.
func (c *BoundMono) isBoundMethod(fs FuncSource) bool {
	return fs.Recv != nil && c.isBoundType(fs.Recv)
}

func (c *BoundMono) checkFunc(prog *Program, fs FuncSource) []Diagnostic {
	info := fs.Pkg.Info
	var diags []Diagnostic
	report := func(n ast.Node, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Pos:     prog.position(n.Pos()),
			Check:   c.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}
	// The traversal prunes nested literals: funcsOf hands each literal to
	// checkFunc separately, with its own IR.
	ast.Inspect(fs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != fs.Decl {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// Raw field access on a bound value: x.bits, s.bound.bits.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if name, bound := c.boundTypeName(info.TypeOf(n.X)); bound {
					report(n.Sel, "raw %s field %s accessed outside the type's methods; the CAS-min discipline lives in tighten/load",
						name, n.Sel.Name)
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "store" || !c.isBoundType(info.TypeOf(sel.X)) {
				return true
			}
			if len(n.Args) == 1 && c.isPlusInf(prog, fs, n.Args[0]) {
				return true // the one legal store: +Inf initialization
			}
			report(n, "store on the shared bound with a value other than math.Inf(1) can widen it; use tighten (CAS-min)")
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				t := info.TypeOf(lhs)
				if _, isPtr := t.(*types.Pointer); isPtr {
					// Handing a *bound around is injection (the shard
					// executor wiring a broadcast bound into Options),
					// not a reset of the value.
					continue
				}
				if name, bound := c.boundTypeName(t); bound {
					report(lhs, "overwriting a whole %s value resets the shared bound; use tighten (CAS-min)", name)
				}
			}
		}
		return true
	})
	return diags
}

// isPlusInf reports whether e resolves, through the function's reaching
// definitions, to a math.Inf(1) call.
func (c *BoundMono) isPlusInf(prog *Program, fs FuncSource, e ast.Expr) bool {
	info := fs.Pkg.Info
	r := prog.reachFor(prog.IR(fs), info)
	call, ok := ast.Unparen(r.ResolveIdent(e)).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" || fn.Name() != "Inf" {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "1"
}
