package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/ssa"
)

// CancelPoll enforces the engine's cancellation-latency contract (ctxflow
// rule 2, DESIGN.md §11): every potentially unbounded loop in the join
// drivers must poll the context on some path through its body, so a
// cancelled query stops within a bounded amount of work instead of
// running the join to completion.
//
// A loop is potentially unbounded when its body performs frontier or
// storage work: it calls one of the configured hot-path callees
// (expandInto, readPair, the heap pops — the operations whose count
// scales with the input, not with a syntactic bound), calls directly into
// an I/O-scoped package, or calls a function the interprocedural
// reachesIO summary marks as transitively reaching one. Loops over the
// entries of a single decoded node, or over a result slice, trip none of
// these and are left alone.
//
// A loop polls when some node in its body calls ctx.Err/ctx.Done,
// receives from a Done channel, or calls a function the cancels summary
// marks as a cancellation point — which is how the engine's stride-gated
// cancelGate.poll satisfies the check without the driver spelling
// ctx.Err inline. Polls are found on the CFG, so a poll on one branch of
// the body counts (the branch runs every iteration or the loop has some
// other exit); what cannot happen is a flagged loop with a poll hiding
// on every path, because absence is checked over all blocks of the
// natural loop.
//
// Stride allowance: a poll gated by a masked counter (`steps&(N-1) != 0`
// or `steps%N != 0`) is accepted up to MaxStride — the gate is exactly
// how the hot path keeps the poll at zero cost — but a coarser gate
// defers cancellation too long and is flagged. The stride is read from
// the constant-folded gate conditions of the polling function and of the
// loop body itself; a canceller reached through a further call level
// reports stride 1 (lenient: the check enforces presence, the stride
// bound is a direct-idiom guard).
type CancelPoll struct {
	// Scopes are import-path fragments for the packages whose loops are
	// checked.
	Scopes []string
	// IOScopes are import-path fragments for the storage layers; calls
	// into them (transitively) make a loop potentially unbounded.
	IOScopes []string
	// HotNames are callee names that mark frontier work regardless of
	// package.
	HotNames []string
	// ExemptRecv names receiver types whose methods are container
	// internals (the heaps themselves); their loops are bounded by the
	// container and never polled.
	ExemptRecv []string
	// MaxStride is the largest accepted poll stride.
	MaxStride int64
}

// NewCancelPoll returns the check configured for the join engine.
func NewCancelPoll() *CancelPoll {
	// IOScopes names only the storage layer, not internal/rtree: the
	// rtree package mixes page-reading traversal with pure geometry
	// (Entry.Child, Rect accessors), and the functions that really read
	// pages reach internal/storage anyway, so the transitive summary
	// catches them without branding every MBR accessor as I/O.
	return &CancelPoll{
		Scopes:     []string{"internal/core", "internal/shard"},
		IOScopes:   []string{"internal/storage"},
		HotNames:   []string{"expandInto", "scanLeaves", "readPair", "pop", "Pop"},
		ExemptRecv: []string{"pairHeap", "kHeap", "batchQueue"},
		MaxStride:  1 << 16,
	}
}

// Name implements Check.
func (c *CancelPoll) Name() string { return "cancelpoll" }

// Run implements Check.
func (c *CancelPoll) Run(prog *Program) []Diagnostic {
	facts := newCtxFacts(prog)
	reachesIO := c.reachesIO(facts)
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if !pathInScope(pkg.ImportPath, c.Scopes) {
			continue
		}
		for _, fs := range funcsOf(prog, pkg) {
			if fs.Recv != nil && inList(fs.Recv.Obj().Name(), c.ExemptRecv) {
				continue
			}
			diags = append(diags, c.checkFunc(prog, facts, reachesIO, fs)...)
		}
	}
	return diags
}

// reachesIO computes the transitive may-reach-I/O summary: a node holds
// the fact when it is a function of an I/O-scoped package or calls one,
// directly or through callees.
func (c *CancelPoll) reachesIO(facts *ctxFacts) map[any]bool {
	direct := make(map[any]bool)
	for n, succs := range facts.g.edges {
		if c.nodeInIO(n) {
			direct[n] = true
		}
		for _, s := range succs {
			if c.nodeInIO(s) {
				direct[s] = true
			}
		}
	}
	return propagateUp(facts.g, direct)
}

// nodeInIO reports whether a callgraph node is a declared function of an
// I/O-scoped package.
func (c *CancelPoll) nodeInIO(n any) bool {
	fn, ok := n.(*types.Func)
	return ok && fn.Pkg() != nil && pathInScope(fn.Pkg().Path(), c.IOScopes)
}

// pollPoint is one cancellation point of a function body: the AST node
// that polls, and the effective stride after masked-counter gates.
type pollPoint struct {
	node   ast.Node
	stride int64
}

func (c *CancelPoll) checkFunc(prog *Program, facts *ctxFacts, reachesIO map[any]bool, fs FuncSource) []Diagnostic {
	f := prog.IR(fs)
	loops := f.Loops(f.Dominators())
	if len(loops) == 0 {
		return nil
	}
	info := fs.Pkg.Info

	// Gate conditions of this body: if-statements whose condition folds
	// to a masked-counter stride. A poll lexically inside such an if
	// inherits the gate's stride.
	type gate struct {
		stmt   *ast.IfStmt
		stride int64
	}
	var gates []gate
	bodyInspect(fs.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			if s := strideOf(info, ifs.Cond); s > 0 {
				gates = append(gates, gate{ifs, s})
			}
		}
		return true
	})

	// Cancellation points of this body, with effective strides.
	var polls []pollPoint
	addPoll := func(n ast.Node, base int64) {
		stride := base
		for _, g := range gates {
			if g.stmt.Pos() <= n.Pos() && n.End() <= g.stmt.End() && g.stride > stride {
				stride = g.stride
			}
		}
		polls = append(polls, pollPoint{node: n, stride: stride})
	}
	bodyInspect(fs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if ctxMethodName(info, n) != "" {
				addPoll(n, 1)
				return true
			}
			if fn := staticCallee(info, n); fn != nil && facts.cancels[fn] {
				addPoll(n, facts.strideOfCallee(fn))
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && ctxMethodName(info, call) == "Done" {
					addPoll(n, 1)
				}
			}
		}
		return true
	})

	var diags []Diagnostic
	for _, loop := range loops {
		if !c.loopUnbounded(info, facts, reachesIO, loop) {
			continue
		}
		minStride := int64(-1)
		for _, p := range polls {
			b := f.BlockOf(p.node)
			if b == nil || !loop.Contains(b) {
				continue
			}
			if minStride < 0 || p.stride < minStride {
				minStride = p.stride
			}
		}
		pos := loopPos(loop)
		switch {
		case minStride < 0:
			diags = append(diags, Diagnostic{
				Pos:   prog.position(pos),
				Check: c.Name(),
				Message: fmt.Sprintf(
					"potentially unbounded loop in %s never polls the context; a cancelled query runs it to completion — poll ctx.Err() (stride-gated is fine)",
					fs.Name),
			})
		case minStride > c.MaxStride:
			diags = append(diags, Diagnostic{
				Pos:   prog.position(pos),
				Check: c.Name(),
				Message: fmt.Sprintf(
					"loop in %s polls the context only every %d iterations (max allowed %d); tighten the gate",
					fs.Name, minStride, c.MaxStride),
			})
		}
	}
	return diags
}

// loopUnbounded classifies a natural loop as potentially unbounded: some
// node of its body calls a hot-path callee or (transitively) reaches the
// I/O layers.
func (c *CancelPoll) loopUnbounded(info *types.Info, facts *ctxFacts, reachesIO map[any]bool, loop *ssa.Loop) bool {
	for b := range loop.Blocks {
		for _, n := range b.Nodes {
			hot := false
			ssa.Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticCallee(info, call)
				if fn == nil {
					return true
				}
				if inList(fn.Name(), c.HotNames) {
					hot = true
					return false
				}
				if fn.Pkg() != nil && pathInScope(fn.Pkg().Path(), c.IOScopes) {
					hot = true
					return false
				}
				if reachesIO[fn] {
					hot = true
					return false
				}
				return true
			})
			if hot {
				return true
			}
		}
	}
	return false
}

// loopPos anchors a loop diagnostic: the first node of the header block,
// falling back to the smallest position across the loop body (so
// //lint:ignore directives above the `for` line work).
func loopPos(loop *ssa.Loop) token.Pos {
	if len(loop.Head.Nodes) > 0 {
		return loop.Head.Nodes[0].Pos()
	}
	pos := token.NoPos
	for b := range loop.Blocks {
		for _, n := range b.Nodes {
			if pos == token.NoPos || n.Pos() < pos {
				pos = n.Pos()
			}
		}
	}
	return pos
}

// inList reports whether name appears in list.
func inList(name string, list []string) bool {
	for _, s := range list {
		if s == name {
			return true
		}
	}
	return false
}
