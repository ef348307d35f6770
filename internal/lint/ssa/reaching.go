package ssa

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Reaching definitions: which assignments of a local variable may still
// be in effect at a given program point. This is the factored def-use
// form the checks consume instead of materialized SSA — a use's
// reaching-definition set is exactly the operand list its phi-chain
// would carry.

// Def is one definition of a variable.
type Def struct {
	// Var is the defined variable.
	Var *types.Var
	// Node is the defining statement (or range header).
	Node ast.Node
	// Rhs is the defining expression when one is statically attributable
	// (single-value assignment, initialized var declaration); nil for
	// multi-value assignments, ++/--, compound assignment, range
	// headers and zero-value declarations.
	Rhs ast.Expr

	index int
}

// Reaching holds the fixpoint solution for one Func.
type Reaching struct {
	f    *Func
	info *types.Info
	defs []*Def
	// in[b] is the bitset of defs reaching the start of block b.
	in map[*Block][]uint64
	// byNode caches defs grouped by their defining node.
	byNode map[ast.Node][]*Def
}

// Reach computes reaching definitions for f. Function parameters have
// no Def (there is no defining statement); a variable with an empty
// reaching set at a use is therefore "defined outside the body" —
// callers must treat that conservatively.
func Reach(f *Func, info *types.Info) *Reaching {
	r := &Reaching{
		f:      f,
		info:   info,
		in:     make(map[*Block][]uint64),
		byNode: make(map[ast.Node][]*Def),
	}
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			for _, d := range defsOf(info, n) {
				d.index = len(r.defs)
				r.defs = append(r.defs, d)
				r.byNode[n] = append(r.byNode[n], d)
			}
		}
	}
	words := (len(r.defs) + 63) / 64
	// Per-variable kill masks.
	killByVar := make(map[*types.Var][]uint64)
	for _, d := range r.defs {
		m := killByVar[d.Var]
		if m == nil {
			m = make([]uint64, words)
			killByVar[d.Var] = m
		}
		m[d.index/64] |= 1 << (d.index % 64)
	}
	// Block-local gen/kill by a forward scan (later defs of a variable
	// supersede earlier ones within the block).
	gen := make(map[*Block][]uint64)
	kill := make(map[*Block][]uint64)
	for _, b := range f.Blocks {
		g, k := make([]uint64, words), make([]uint64, words)
		for _, n := range b.Nodes {
			for _, d := range r.byNode[n] {
				vk := killByVar[d.Var]
				for w := range g {
					g[w] &^= vk[w]
					k[w] |= vk[w]
				}
				g[d.index/64] |= 1 << (d.index % 64)
			}
		}
		gen[b], kill[b] = g, k
		r.in[b] = make([]uint64, words)
	}
	// Forward fixpoint: in[b] = union of out[p]; out = gen | (in &^ kill).
	out := make(map[*Block][]uint64)
	for _, b := range f.Blocks {
		out[b] = make([]uint64, words)
		copy(out[b], gen[b])
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			inb := r.in[b]
			for _, p := range b.Preds {
				for w, v := range out[p] {
					inb[w] |= v
				}
			}
			for w := range inb {
				nv := gen[b][w] | (inb[w] &^ kill[b][w])
				if nv != out[b][w] {
					out[b][w] = nv
					changed = true
				}
			}
		}
	}
	return r
}

// At returns the definitions of v that may reach the given use site.
// use must be a node recorded in a block or nested (shallowly) inside
// one; nil is returned when the node cannot be located.
func (r *Reaching) At(use ast.Node, v *types.Var) []*Def {
	b := r.f.BlockOf(use)
	if b == nil {
		return nil
	}
	live := make([]uint64, len(r.in[b]))
	copy(live, r.in[b])
	// Apply the block's defs up to (not including) the node containing
	// the use.
	for _, n := range b.Nodes {
		if n == use || (n.Pos() <= use.Pos() && use.End() <= n.End()) {
			break
		}
		for _, d := range r.byNode[n] {
			for i, od := range r.defs {
				if od.Var == d.Var {
					live[i/64] &^= 1 << (i % 64)
				}
			}
			live[d.index/64] |= 1 << (d.index % 64)
		}
	}
	var res []*Def
	for _, d := range r.defs {
		if d.Var == v && live[d.index/64]&(1<<(d.index%64)) != 0 {
			res = append(res, d)
		}
	}
	return res
}

// ResolveIdent chases an identifier through its reaching definitions:
// if id has exactly one reaching definition with a known Rhs, that Rhs
// is returned (unwrapping further single-definition identifiers); the
// identifier itself is returned when the chain cannot be resolved
// uniquely. This is the SSA-style "look through the virtual register"
// operation the monotone-bound check uses to evaluate store arguments.
func (r *Reaching) ResolveIdent(e ast.Expr) ast.Expr {
	for i := 0; i < 8; i++ { // depth guard against pathological chains
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return e
		}
		v, ok := r.info.Uses[id].(*types.Var)
		if !ok {
			return e
		}
		defs := r.At(id, v)
		if len(defs) != 1 || defs[0].Rhs == nil {
			return e
		}
		e = defs[0].Rhs
	}
	return e
}

// defsOf extracts the variable definitions a recorded block node makes.
func defsOf(info *types.Info, n ast.Node) []*Def {
	var defs []*Def
	add := func(id *ast.Ident, node ast.Node, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		var v *types.Var
		if obj, ok := info.Defs[id].(*types.Var); ok {
			v = obj
		} else if obj, ok := info.Uses[id].(*types.Var); ok {
			v = obj
		}
		if v != nil {
			defs = append(defs, &Def{Var: v, Node: node, Rhs: rhs})
		}
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		single := len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if single && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
				rhs = n.Rhs[i]
			}
			add(id, n, rhs)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			return nil
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if len(vs.Values) == len(vs.Names) {
					rhs = vs.Values[i]
				}
				add(name, n, rhs)
			}
		}
	case *ast.IncDecStmt:
		if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
			add(id, n, nil)
		}
	case *ast.RangeStmt:
		if id, ok := n.Key.(*ast.Ident); ok {
			add(id, n, nil)
		}
		if id, ok := n.Value.(*ast.Ident); ok {
			add(id, n, nil)
		}
	}
	return defs
}
