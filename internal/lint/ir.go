package lint

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/lint/ssa"
)

// This file ports the driver onto the SSA-lite IR: Program owns one
// memoized CFG per function body, so the path-sensitive checks
// (lockorder, boundmono, deferinloop, cancelpoll) share a single build
// per function.

// FuncSource is one analyzable function body: a declared function or a
// function literal, with the package context a check needs to resolve
// types and report positions.
type FuncSource struct {
	// Pkg is the package declaring the function.
	Pkg *Package
	// Name is a human-readable label: "Name", "(*T).Name", or
	// "Parent.func@line" for literals.
	Name string
	// Decl is the *ast.FuncDecl or *ast.FuncLit.
	Decl ast.Node
	// Body is the function body the IR is built from.
	Body *ast.BlockStmt
	// Recv is the receiver's named type for methods, nil otherwise.
	Recv *types.Named
}

// funcsOf lists every function and function literal of pkg, outermost
// first.
func funcsOf(prog *Program, pkg *Package) []FuncSource {
	var out []FuncSource
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			var recv *types.Named
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if t := pkg.Info.TypeOf(fd.Recv.List[0].Type); t != nil {
					recv = namedOf(t)
					if recv != nil {
						name = fmt.Sprintf("(*%s).%s", recv.Obj().Name(), fd.Name.Name)
					}
				}
			}
			out = append(out, FuncSource{Pkg: pkg, Name: name, Decl: fd, Body: fd.Body, Recv: recv})
			out = append(out, literalsIn(prog, pkg, name, fd.Body)...)
		}
	}
	return out
}

// literalsIn collects the function literals nested in body (each one a
// separate Func for the IR, mirroring the callgraph's treatment).
func literalsIn(prog *Program, pkg *Package, parent string, body ast.Node) []FuncSource {
	var out []FuncSource
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		name := fmt.Sprintf("%s.func@%d", parent, prog.position(lit.Pos()).Line)
		out = append(out, FuncSource{Pkg: pkg, Name: name, Decl: lit, Body: lit.Body})
		out = append(out, literalsIn(prog, pkg, name, lit.Body)...)
		return false // the recursive call owns the nested literals
	})
	return out
}

// node resolves a FuncSource to its callgraph node: the *types.Func for a
// declared function, the *ast.FuncLit itself for a literal.
func (fs FuncSource) node() any {
	switch d := fs.Decl.(type) {
	case *ast.FuncDecl:
		if fn, ok := fs.Pkg.Info.Defs[d.Name].(*types.Func); ok {
			return fn
		}
	case *ast.FuncLit:
		return d
	}
	return nil
}

// IR returns the control-flow graph for fs, building and memoizing it
// on first use.
func (p *Program) IR(fs FuncSource) *ssa.Func {
	if p.ir == nil {
		p.ir = make(map[*ast.BlockStmt]*ssa.Func)
	}
	if f, ok := p.ir[fs.Body]; ok {
		return f
	}
	f := ssa.Build(fs.Name, fs.Body, fs.Pkg.Info)
	p.ir[fs.Body] = f
	return f
}

// reachFor memoizes the reaching-definitions solution per CFG.
func (p *Program) reachFor(f *ssa.Func, info *types.Info) *ssa.Reaching {
	if p.reach == nil {
		p.reach = make(map[*ssa.Func]*ssa.Reaching)
	}
	if r, ok := p.reach[f]; ok {
		return r
	}
	r := ssa.Reach(f, info)
	p.reach[f] = r
	return r
}

// namedOf unwraps pointers to the named type underneath, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
