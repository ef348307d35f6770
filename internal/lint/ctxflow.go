package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
)

// This file is the shared substrate of the ctxflow pass — the two
// cancellation-correctness checks ctxprop and cancelpoll (see DESIGN.md
// §11). It computes interprocedural summaries over the memoized
// callgraph:
//
//   - cancels: the function polls the context (calls ctx.Err or ctx.Done
//     on a context.Context value), directly or through a callee. A loop
//     that calls a summarized canceller is interruptible without spelling
//     the poll inline — this is how the engine's stride-gated
//     cancelGate.poll makes every driver loop a cancellation point.
//   - reachesIO (computed by cancelpoll from the same propagation): the
//     function calls into the storage layer, directly or through a
//     callee. Together with a list of hot-path callee names this
//     classifies loops as "potentially unbounded".
//
// Both are may-analyses over the callgraph-lite edges: an edge
// over-approximates (a literal may run whenever its encloser does, a
// method value may be invoked by its receiver), so a summary can claim a
// poll that a particular path never executes. That direction of error
// makes cancelpoll lenient, never noisy — the checks enforce the presence
// of cancellation machinery, and a missing poll has no path to hide on.

// bodyInspect walks a whole function body like ast.Inspect but never
// descends into a nested function literal's body: a literal is its own
// FuncSource and callgraph node, so its statements must not be
// attributed to the encloser. Unlike ssa.Inspect — which serves
// per-block node walks and so also skips range bodies (they live in
// successor blocks) — this walker does descend into loop bodies, which
// is what a function-at-a-time scan needs.
func bodyInspect(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if !fn(m) {
			return false
		}
		_, isLit := m.(*ast.FuncLit)
		return !isLit
	})
}

// isContextType reports whether t is context.Context (possibly behind a
// pointer).
func isContextType(t types.Type) bool {
	named := namedOf(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxParamIndex returns the index of the first context.Context parameter
// of sig, or -1.
func ctxParamIndex(sig *types.Signature) int {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return i
		}
	}
	return -1
}

// deadContextCall returns "context.Background()" or "context.TODO()" when
// e is a direct call of one of those constructors, and "" otherwise.
func deadContextCall(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return "context." + name + "()"
	}
	return ""
}

// ctxMethodName returns "Err" or "Done" when call invokes that method on
// a context.Context value, and "" otherwise.
func ctxMethodName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if sel.Sel.Name != "Err" && sel.Sel.Name != "Done" {
		return ""
	}
	if t := info.TypeOf(sel.X); t != nil && isContextType(t) {
		return sel.Sel.Name
	}
	return ""
}

// ctxFacts bundles the callgraph with per-node bodies and the propagated
// summaries. One instance serves one check run.
type ctxFacts struct {
	g *callgraph
	// bodies and infos index the shallow body and type info of every
	// callgraph node (*types.Func of a declared function, or
	// *ast.FuncLit).
	bodies map[any]*ast.BlockStmt
	infos  map[any]*types.Info
	// cancels marks nodes that poll ctx.Err/ctx.Done, transitively.
	cancels map[any]bool
}

// newCtxFacts builds the summaries over every loaded package.
func newCtxFacts(prog *Program) *ctxFacts {
	f := &ctxFacts{
		g:      prog.Callgraph(),
		bodies: make(map[any]*ast.BlockStmt),
		infos:  make(map[any]*types.Info),
	}
	directCancel := make(map[any]bool)
	for _, pkg := range prog.Packages {
		info := pkg.Info
		for _, fs := range funcsOf(prog, pkg) {
			node := fs.node()
			if node == nil {
				continue
			}
			f.bodies[node] = fs.Body
			f.infos[node] = info
			bodyInspect(fs.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && ctxMethodName(info, call) != "" {
					directCancel[node] = true
				}
				return true
			})
		}
	}
	f.cancels = propagateUp(f.g, directCancel)
	return f
}

// propagateUp closes a direct-fact map over the callgraph: a node holds
// the fact when it holds it directly or any callee (edge successor) does.
// The fixpoint iterates to a stable solution; cycles (recursion) converge
// because facts only ever turn on.
func propagateUp(g *callgraph, direct map[any]bool) map[any]bool {
	out := make(map[any]bool, len(direct))
	for n, v := range direct {
		if v {
			out[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for n, succs := range g.edges {
			if out[n] {
				continue
			}
			for _, s := range succs {
				if out[s] {
					out[n] = true
					changed = true
					break
				}
			}
		}
	}
	return out
}

// callCancels reports whether a call expression invokes a summarized
// cancellation point.
func (f *ctxFacts) callCancels(info *types.Info, call *ast.CallExpr) bool {
	if ctxMethodName(info, call) != "" {
		return true
	}
	if fn := staticCallee(info, call); fn != nil {
		return f.cancels[fn]
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return f.cancels[lit]
	}
	return false
}

// strideOfCallee estimates the poll stride of a summarized canceller: the
// coarsest masked-counter gate in its own body, or 1 when the body is
// unavailable or ungated. A canceller reached through a further call
// level is not followed — the stride bound is a direct-idiom guard, and
// understating a stride only makes the check more lenient.
func (f *ctxFacts) strideOfCallee(fn any) int64 {
	body := f.bodies[fn]
	info := f.infos[fn]
	if body == nil || info == nil {
		return 1
	}
	stride := int64(1)
	bodyInspect(body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if s := strideOf(info, ifs.Cond); s > stride {
				stride = s
			}
		}
		return true
	})
	return stride
}

// strideOf extracts the poll stride from a counter guard: for a condition
// containing `expr & C` the stride is C+1 (the mask idiom
// `steps&(stride-1) == 0`), for `expr % C` it is C. Returns 0 when the
// expression carries no constant-masked counter.
func strideOf(info *types.Info, cond ast.Expr) int64 {
	var stride int64
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		var c int64
		switch be.Op.String() {
		case "&":
			if v, ok := intConst(info, be.X); ok {
				c = v + 1
			} else if v, ok := intConst(info, be.Y); ok {
				c = v + 1
			}
		case "%":
			if v, ok := intConst(info, be.Y); ok {
				c = v
			}
		}
		if c > stride {
			stride = c
		}
		return true
	})
	return stride
}

// intConst evaluates e as a constant int64 via the type-checker's folding
// (so named constants and constant arithmetic like cancelStride-1 work).
func intConst(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// funcLabel renders a callee for diagnostics: "pkg.Func" or
// "(*T).Method".
func funcLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedOf(sig.Recv().Type()); named != nil {
			return fmt.Sprintf("(*%s).%s", named.Obj().Name(), fn.Name())
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
