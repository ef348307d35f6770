// Package ssa is the SSA-lite intermediate representation behind the
// path-sensitive cpqlint checks. "Lite" is deliberate: the IR stops at
// basic blocks over the typed AST — no phi nodes, no virtual registers —
// because what the checks actually need (which blocks must run before
// which, which blocks loop) is recoverable from classic analyses over
// the control-flow graph:
//
//   - a CFG of basic blocks per function body (cfg.go),
//   - the dominator tree (dom.go),
//   - natural-loop detection from back edges (loops.go).
//
// The package is stdlib-only (go/ast + go/types), like the rest of the
// analyzer. It deals in the original AST nodes throughout, so checks can
// report positions without any mapping layer.
//
// Block contents follow one convention: a block holds simple statements
// as-is and, for compound statements, only the header parts that execute
// when control passes through the block (an if condition, a for
// condition, a switch tag, a range header). Nested bodies are laid out
// in successor blocks. Function literals are opaque values here — each
// literal gets its own Func when a check asks for one — so traversals of
// block contents must use Inspect below, which prunes literal bodies.
package ssa

import (
	"go/ast"
)

// Block is one basic block: a maximal straight-line run of nodes with
// edges only at the end.
type Block struct {
	// Index is the block's position in Func.Blocks (entry is 0).
	Index int
	// Nodes are the statements and header expressions executed by the
	// block, in source order.
	Nodes []ast.Node
	// Succs and Preds are the CFG edges.
	Succs []*Block
	Preds []*Block
}

// Func is the control-flow graph of one function or function-literal
// body.
type Func struct {
	// Name labels the function for debugging ("(*taskRun).work",
	// "func@42" for literals).
	Name string
	// Body is the AST body the graph was built from.
	Body *ast.BlockStmt
	// Blocks lists every block, entry first. Unreachable blocks (dead
	// code after a terminator) stay in the list with no predecessors.
	Blocks []*Block
	// Entry is Blocks[0]; Exit is the synthetic sink every return,
	// panic and fallthrough-off-the-end edge targets. Exit holds no
	// nodes.
	Entry, Exit *Block

	blockOf map[ast.Node]*Block
}

// BlockOf returns the block holding node n. For a node that was not
// appended directly (a sub-expression of a recorded statement), the
// enclosing recorded node's block is found by position containment.
// Returns nil for nodes outside the function (including nodes inside
// nested function literals).
func (f *Func) BlockOf(n ast.Node) *Block {
	if b, ok := f.blockOf[n]; ok {
		return b
	}
	for _, b := range f.Blocks {
		for _, m := range b.Nodes {
			if m.Pos() <= n.Pos() && n.End() <= m.End() && containsShallow(m, n) {
				return b
			}
		}
	}
	return nil
}

// containsShallow reports whether target occurs under root without
// crossing into a nested function literal.
func containsShallow(root, target ast.Node) bool {
	found := false
	Inspect(root, func(n ast.Node) bool {
		if n == target {
			found = true
		}
		return !found
	})
	return found
}

// Inspect is ast.Inspect restricted to the current function: it visits
// *ast.FuncLit nodes themselves but never their bodies (a literal is a
// value here; its body is a different Func), and for a *ast.RangeStmt
// header recorded in a block it visits only the key/value expressions
// (the range operand is recorded separately in the pre-loop block, and
// the body lives in successor blocks).
func Inspect(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if !fn(m) {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if m.Key != nil {
				Inspect(m.Key, fn)
			}
			if m.Value != nil {
				Inspect(m.Value, fn)
			}
			return false
		}
		return true
	})
}
