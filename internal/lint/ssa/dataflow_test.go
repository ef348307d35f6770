package ssa_test

import (
	"go/ast"
	"go/types"
	"testing"

	"repro/internal/lint/ssa"
)

// findIdent returns the n-th identifier (1-based) with the given name
// in the function body.
func findIdent(f *ssa.Func, name string, nth int) *ast.Ident {
	var found *ast.Ident
	count := 0
	ast.Inspect(f.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			count++
			if count == nth {
				found = id
			}
		}
		return found == nil
	})
	return found
}

func varOf(t *testing.T, info *types.Info, id *ast.Ident) *types.Var {
	t.Helper()
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	t.Fatalf("identifier %s resolves to no variable", id.Name)
	return nil
}

func TestReachingDefsMergeAtJoin(t *testing.T) {
	f, info := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	r := ssa.Reach(f, info)
	// The x in `return x` sees both definitions.
	use := findIdent(f, "x", 3)
	defs := r.At(use, varOf(t, info, use))
	if len(defs) != 2 {
		t.Fatalf("want 2 reaching defs at the return, got %d", len(defs))
	}
}

func TestReachingDefsKillInBlock(t *testing.T) {
	f, info := buildFunc(t, `package p
func f() int {
	x := 1
	x = 2
	return x
}`, "f")
	r := ssa.Reach(f, info)
	use := findIdent(f, "x", 3)
	defs := r.At(use, varOf(t, info, use))
	if len(defs) != 1 {
		t.Fatalf("want 1 reaching def (the second assignment), got %d", len(defs))
	}
	if lit, ok := defs[0].Rhs.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Errorf("reaching def should be x = 2, got %v", defs[0].Rhs)
	}
}

func TestResolveIdentChain(t *testing.T) {
	f, info := buildFunc(t, `package p
func g() float64 { return 1 }
func f() float64 {
	a := g()
	b := a
	return b
}`, "f")
	r := ssa.Reach(f, info)
	use := findIdent(f, "b", 2) // the b in `return b`
	resolved := r.ResolveIdent(use)
	if _, ok := resolved.(*ast.CallExpr); !ok {
		t.Errorf("want the g() call after chasing b -> a -> g(), got %T", resolved)
	}
}

func TestResolveIdentAmbiguousStaysPut(t *testing.T) {
	f, info := buildFunc(t, `package p
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	y := x
	return y
}`, "f")
	r := ssa.Reach(f, info)
	use := findIdent(f, "y", 2)
	resolved := r.ResolveIdent(use)
	// y has one def (x) but x has two: the chain must stop at x.
	if id, ok := resolved.(*ast.Ident); !ok || id.Name != "x" {
		t.Errorf("want resolution to stop at the ambiguous x, got %v", resolved)
	}
}
