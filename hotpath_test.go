package cpq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestHotPathSourceRules holds four rules over the non-test sources of the
// hot-path packages (DESIGN.md §7). Each rule guards a property no test
// outcome shows: a query with a stray root, a deferred release or an
// untraced event still returns the right pairs, only slower.
func TestHotPathSourceRules(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, dir := range []string{"internal/core", "internal/geom", "internal/rtree", "internal/storage"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, filepath.ToSlash(path), nil, parser.SkipObjectResolution)
			files = append(files, f)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	pathOf := func(n ast.Node) string { return fset.Position(n.Pos()).Filename }

	// The pruning rules compare the same under squaring, so the engine
	// compares squared distances end to end. Only the functions that report
	// a distance take a root, and the bulk loader's STR slab count, which is
	// no distance.
	t.Run("sqrt", func(t *testing.T) {
		allowed := map[string]bool{
			"Dist": true, "KeyToDist": true, "MinMinDist": true, "MinMaxDist": true,
			"MaxMaxDist": true, "PointRectMinDist": true, "PointRectMinMaxDist": true,
			"internal/rtree/bulk.go packLevel": true,
		}
		for _, f := range files {
			walk(f, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok || chain(call.Fun) != "math.Sqrt" {
					return
				}
				name := enclosingFunc(stack).Name.Name
				if !allowed[name] && !allowed[pathOf(f)+" "+name] {
					t.Errorf("%s: math.Sqrt in %s; compare squared distances", fset.Position(call.Pos()), name)
				}
			})
		}
	})

	// A defer runs at function return, not at the end of the iteration:
	// deferred in a traversal loop, a release holds every visited node's
	// resources until the query ends. There is no goto in the module, so a
	// syntactic loop is every loop.
	t.Run("defer-in-loop", func(t *testing.T) {
		for _, f := range files {
			walk(f, func(n ast.Node, stack []ast.Node) {
				if _, ok := n.(*ast.DeferStmt); !ok {
					return
				}
				for i := len(stack) - 1; i >= 0; i-- {
					switch stack[i].(type) {
					case *ast.FuncLit, *ast.FuncDecl:
						return
					case *ast.ForStmt, *ast.RangeStmt:
						t.Errorf("%s: defer inside a loop; release per iteration or wrap the iteration in a func literal", fset.Position(n.Pos()))
						return
					}
				}
			})
		}
	})

	// Span.Emit and Span.End are no-ops on a nil span, so only this rule
	// keeps an untraced query from building events: every call sits in a
	// helper that leads with `if <span> == nil { return }` (core/trace.go).
	t.Run("emit-guard", func(t *testing.T) {
		for _, f := range files {
			if !strings.HasPrefix(pathOf(f), "internal/core/") {
				continue
			}
			walk(f, func(n ast.Node, stack []ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Emit" && sel.Sel.Name != "End") {
					return
				}
				recv := chain(sel.X)
				fd := enclosingFunc(stack)
				if recv == "" || leadingNilGuard(fd) != recv {
					t.Errorf("%s: %s.%s in %s, which does not lead with `if %s == nil { return }`",
						fset.Position(call.Pos()), recv, sel.Sel.Name, fd.Name.Name, recv)
				}
			})
		}
	})

	// The leaf scan and the expansion kernel sort with slices and their own
	// insertion sorts (DESIGN.md §8, §10); the interface-based sort package
	// must not come back into either file.
	t.Run("sort-import", func(t *testing.T) {
		want := map[string]bool{"internal/core/sweep.go": true, "internal/core/kernel.go": true}
		for _, f := range files {
			if !want[pathOf(f)] {
				continue
			}
			delete(want, pathOf(f))
			for _, imp := range f.Imports {
				if imp.Path.Value == `"sort"` {
					t.Errorf("%s: imports sort", fset.Position(imp.Pos()))
				}
			}
		}
		for path := range want {
			t.Errorf("%s: not found; move this rule with the file", path)
		}
	})
}

// walk calls fn on every node of f with the node's ancestors, outermost
// first.
func walk(f *ast.File, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// enclosingFunc returns the declared function on stack, or an unnamed one
// for a package-level initializer.
func enclosingFunc(stack []ast.Node) *ast.FuncDecl {
	for _, n := range stack {
		if fd, ok := n.(*ast.FuncDecl); ok {
			return fd
		}
	}
	return &ast.FuncDecl{Name: ast.NewIdent("package scope")}
}

// chain renders an identifier or a selector chain on one ("j.span"), and
// returns "" for any other expression.
func chain(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if x := chain(e.X); x != "" {
			return x + "." + e.Sel.Name
		}
	}
	return ""
}

// leadingNilGuard returns x when fd's first statement is
// `if x == nil { return }`, and "" otherwise.
func leadingNilGuard(fd *ast.FuncDecl) string {
	if fd.Body == nil || len(fd.Body.List) == 0 {
		return ""
	}
	ifs, ok := fd.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Init != nil || ifs.Else != nil || len(ifs.Body.List) != 1 {
		return ""
	}
	if _, ok := ifs.Body.List[0].(*ast.ReturnStmt); !ok {
		return ""
	}
	cond, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL || chain(cond.Y) != "nil" {
		return ""
	}
	return chain(cond.X)
}
