package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The callgraph built here is deliberately "lite": nodes are declared
// functions (identified by their *types.Func) and function literals
// (identified by their *ast.FuncLit), and edges are the statically
// resolvable calls — direct calls of package functions, method calls whose
// receiver type is concrete, an over-approximating edge from every
// function to the literals nested in its body (a literal may run whenever
// its encloser does: it is called inline, deferred, or passed as a
// callback), and an over-approximating edge for every method value taken
// without being called (s.worker used as a value may be invoked by
// whoever receives it). A goroutine spawned through a local variable
// (`w := s.worker; go w()`) is resolved through the SSA-lite reaching
// definitions of the spawn site. Calls through interfaces or
// function-typed parameters are not traced further; the engine's
// concurrent paths are all direct calls, and a missed edge here fails
// loud in review, not silent in production.

// cgCall is one statically resolved call site.
type cgCall struct {
	callee *types.Func
	pos    token.Pos
}

// cgRoot is a function started by a go statement.
type cgRoot struct {
	node any // *types.Func or *ast.FuncLit
	from any // the node holding the go statement
	pos  token.Pos
}

// callgraph holds the nodes, edges, call sites and goroutine roots of the
// analyzed packages.
type callgraph struct {
	prog *Program
	// edges maps a node (*types.Func or *ast.FuncLit) to its successors.
	edges map[any][]any
	// calls maps a node to the call sites appearing directly in its body.
	calls map[any][]cgCall
	// roots are the functions spawned by go statements.
	roots []cgRoot
	// pkgs maps a node to the import path of the package declaring it.
	pkgs map[any]string
}

// buildCallgraph constructs the callgraph over the bodies of all functions
// declared in prog.Packages.
func buildCallgraph(prog *Program) *callgraph {
	g := &callgraph{
		prog:  prog,
		edges: make(map[any][]any),
		calls: make(map[any][]cgCall),
		pkgs:  make(map[any]string),
	}
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil {
					if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
						g.walkBody(info, fn, pkg.ImportPath, fd.Body)
					}
				}
			}
		}
	}
	return g
}

// walkBody records the calls, nested literals, method values and go
// statements of one function body under the node `from`.
func (g *callgraph) walkBody(info *types.Info, from any, pkg string, body *ast.BlockStmt) {
	g.pkgs[from] = pkg
	// calleeExprs marks selector expressions that are the function part
	// of a call, to tell a method call from a method value below (a
	// parent CallExpr is visited before its Fun child).
	calleeExprs := make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			g.edges[from] = append(g.edges[from], n)
			g.walkBody(info, n, pkg, n.Body)
			return false // the nested walk owns the literal's body
		case *ast.GoStmt:
			g.addRoot(info, from, body, n)
			// Fall through into the call so argument expressions (and the
			// spawned callee itself, when resolvable) are still recorded as
			// ordinary work of the encloser.
		case *ast.CallExpr:
			calleeExprs[ast.Unparen(n.Fun)] = true
			if callee := staticCallee(info, n); callee != nil {
				g.edges[from] = append(g.edges[from], callee)
				g.calls[from] = append(g.calls[from], cgCall{callee: callee, pos: n.Lparen})
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

// addRoot records the function started by a go statement. A spawn
// through a local function variable (`go w()`) is resolved through the
// reaching definitions of the spawn site: every definition of w that is
// a method value or a declared function contributes a root.
func (g *callgraph) addRoot(info *types.Info, from any, body *ast.BlockStmt, stmt *ast.GoStmt) {
	fun := ast.Unparen(stmt.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		g.roots = append(g.roots, cgRoot{node: lit, from: from, pos: stmt.Go})
		return
	}
	if fn := staticCallee(info, stmt.Call); fn != nil {
		g.roots = append(g.roots, cgRoot{node: fn, from: from, pos: stmt.Go})
		return
	}
	id, ok := fun.(*ast.Ident)
	if !ok {
		return
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return
	}
	f := g.prog.irFor("go-spawn", body, info)
	r := g.prog.reachFor(f, info)
	for _, def := range r.At(id, v) {
		if def.Rhs == nil {
			continue
		}
		switch rhs := ast.Unparen(def.Rhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[rhs]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					g.roots = append(g.roots, cgRoot{node: fn, from: from, pos: stmt.Go})
				}
			}
		case *ast.Ident:
			if fn, ok := info.Uses[rhs].(*types.Func); ok {
				g.roots = append(g.roots, cgRoot{node: fn, from: from, pos: stmt.Go})
			}
		case *ast.FuncLit:
			g.roots = append(g.roots, cgRoot{node: rhs, from: from, pos: stmt.Go})
		}
	}
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

// queryEngine is the package whose exported API the goroutine walk treats as
// opaque when entered from another package. A goroutine of the shard
// executor (or of any other caller) that invokes a query entry point runs
// a complete query on state the entry point builds for that call alone
// (core.newJoin): sequential by contract, whatever spawned the caller. What
// the engine itself shares across goroutines it shares below its own go
// statements, which are roots of this walk in their own right.
const queryEngine = "internal/core"

// entersEngine reports whether the edge from → fn is a call from outside
// the query engine into its exported API.
func (g *callgraph) entersEngine(from any, fn *types.Func) bool {
	return fn.Exported() && fn.Pkg() != nil && fn.Pkg().Path() != g.pkgs[from] &&
		pathInScope(fn.Pkg().Path(), []string{queryEngine})
}

// reachableFromGo runs a BFS from every go-statement root and returns, for
// each reachable node, the root spawn site that first reached it. The walk
// stops at the query engine's API (see queryEngine).
func (g *callgraph) reachableFromGo() map[any]token.Pos {
	reach := make(map[any]token.Pos)
	var queue []any
	for _, r := range g.roots {
		if fn, ok := r.node.(*types.Func); ok && g.entersEngine(r.from, fn) {
			continue
		}
		if _, ok := reach[r.node]; !ok {
			reach[r.node] = r.pos
			queue = append(queue, r.node)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, succ := range g.edges[n] {
			if fn, ok := succ.(*types.Func); ok && g.entersEngine(n, fn) {
				continue
			}
			if _, ok := reach[succ]; !ok {
				reach[succ] = reach[n]
				queue = append(queue, succ)
			}
		}
	}
	return reach
}
