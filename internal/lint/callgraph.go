package lint

import (
	"go/ast"
	"go/types"
)

// The callgraph built here is deliberately "lite": nodes are declared
// functions (identified by their *types.Func) and function literals
// (identified by their *ast.FuncLit), and edges are the statically
// resolvable calls — direct calls of package functions, method calls whose
// receiver type is concrete, an over-approximating edge from every
// function to the literals nested in its body (a literal may run whenever
// its encloser does: it is called inline, deferred, spawned, or passed as
// a callback), and an over-approximating edge for every method value
// taken without being called (s.worker used as a value may be invoked by
// whoever receives it). Calls through interfaces or function-typed
// parameters are not traced further; the engine's paths are all direct
// calls, and a missed edge here fails loud in review, not silent in
// production.

// callgraph holds the edges of the analyzed packages.
type callgraph struct {
	// edges maps a node (*types.Func or *ast.FuncLit) to its successors.
	edges map[any][]any
}

// buildCallgraph constructs the callgraph over the bodies of all functions
// declared in prog.Packages.
func buildCallgraph(prog *Program) *callgraph {
	g := &callgraph{edges: make(map[any][]any)}
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						g.walkBody(info, fn, fd.Body)
					}
				}
			}
		}
	}
	return g
}

// walkBody records the calls, nested literals and method values of one
// function body under the node `from`.
func (g *callgraph) walkBody(info *types.Info, from any, body *ast.BlockStmt) {
	// calleeExprs marks selector expressions that are the function part
	// of a call, to tell a method call from a method value below (a
	// parent CallExpr is visited before its Fun child).
	calleeExprs := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.edges[from] = append(g.edges[from], n)
			g.walkBody(info, n, n.Body)
			return false // the nested walk owns the literal's body
		case *ast.CallExpr:
			calleeExprs[ast.Unparen(n.Fun)] = true
			if callee := staticCallee(info, n); callee != nil {
				g.edges[from] = append(g.edges[from], callee)
			}
		case *ast.SelectorExpr:
			if calleeExprs[n] {
				return true
			}
			// A method value taken without being called: whoever
			// receives the value may invoke it, so over-approximate
			// with an edge from the encloser.
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					g.edges[from] = append(g.edges[from], fn)
				}
			}
		}
		return true
	})
}

// staticCallee resolves a call expression to the *types.Func it invokes,
// or nil when the callee is dynamic (a function value), a builtin, or a
// type conversion.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call (pkg.Func).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
