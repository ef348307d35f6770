package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint/ssa"
)

// Module identifies the Go module under analysis.
type Module struct {
	// Dir is the absolute path of the module root (the directory holding
	// go.mod).
	Dir string
	// Path is the module path declared in go.mod.
	Path string
}

// Package is one type-checked package of the module: the parsed files plus
// the type information the checks traverse.
type Package struct {
	// ImportPath is the package's import path within the module.
	ImportPath string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// Files are the parsed non-test Go files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's fact tables for Files.
	Info *types.Info
}

// Program is a load result: the module, the packages selected by the load
// patterns, and every module package pulled in as a dependency. Checks run
// over Packages; dependencies are available for type information only.
type Program struct {
	Module   Module
	Fset     *token.FileSet
	Packages []*Package
	// Failed records the packages that did not load (parse or
	// type-check error). The rest of the program is still analyzable,
	// but a caller gating a build MUST treat a non-empty Failed as a
	// failure — a package that does not load is a package that was not
	// linted.
	Failed []LoadError

	// ir memoizes the SSA-lite CFG per function body, and reach the
	// reaching-definitions solution per CFG (see ir.go). cg memoizes the
	// callgraph so every check shares one build (see Callgraph).
	ir    map[*ast.BlockStmt]*ssa.Func
	reach map[*ssa.Func]*ssa.Reaching
	cg    *callgraph
}

// Callgraph returns the program's callgraph-lite, building and memoizing
// it on first use: the typed load is already shared across checks through
// this Program, and the callgraph — the next most expensive artifact —
// is shared the same way.
func (p *Program) Callgraph() *callgraph {
	if p.cg == nil {
		p.cg = buildCallgraph(p)
	}
	return p.cg
}

// LoadError is one package that failed to load.
type LoadError struct {
	// Dir is the package directory that was requested.
	Dir string
	// Err is the parse or type-check error.
	Err error
}

func (e LoadError) Error() string { return fmt.Sprintf("%s: %v", e.Dir, e.Err) }

// position resolves a token.Pos into a Position whose file name is relative
// to the module root, for stable diagnostics.
func (p *Program) position(pos token.Pos) token.Position {
	tp := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Module.Dir, tp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		tp.Filename = filepath.ToSlash(rel)
	}
	return tp
}

// loader loads and type-checks module packages from source. Imports of
// module-internal packages are resolved recursively from the module tree;
// everything else (the standard library — the module has no external
// dependencies, and the analyzer refuses to guess at any) goes through the
// stdlib source importer.
type loader struct {
	mod     Module
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package // by import path
	loading map[string]bool     // cycle guard
}

func newLoader(mod Module) *loader {
	fset := token.NewFileSet()
	return &loader{
		mod:     mod,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer for the type-checker's sake: module
// packages load from the module tree, the rest from GOROOT source.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		pkg, err := l.loadDir(filepath.Join(l.mod.Dir, filepath.FromSlash(strings.TrimPrefix(path, l.mod.Path))))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir (non-test files only),
// memoized by import path.
func (l *loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	importPath, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	if l.loading[importPath] {
		return nil, fmt.Errorf("lint: import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goFileNames(abs)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", abs)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(abs, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        abs,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// importPathFor maps an absolute directory inside the module to its import
// path.
func (l *loader) importPathFor(abs string) (string, error) {
	rel, err := filepath.Rel(l.mod.Dir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", abs, l.mod.Dir)
	}
	if rel == "." {
		return l.mod.Path, nil
	}
	return l.mod.Path + "/" + filepath.ToSlash(rel), nil
}

// goFileNames lists the non-test Go files of a directory, sorted.
func goFileNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// FindModule locates the module containing dir by walking up to the nearest
// go.mod and reading its module path.
func FindModule(dir string) (Module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return Module{}, err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path, perr := modulePath(data)
			if perr != nil {
				return Module{}, fmt.Errorf("lint: %s/go.mod: %w", d, perr)
			}
			return Module{Dir: d, Path: path}, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return Module{}, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// modulePath extracts the module path from go.mod contents.
func modulePath(data []byte) (string, error) {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			path := strings.TrimSpace(strings.Trim(strings.TrimSpace(rest), `"`))
			if path != "" {
				return path, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive")
}

// Load type-checks the packages selected by patterns, resolved relative to
// dir (which must lie inside a module). A pattern is either a directory, or
// a directory followed by "/..." to include every package below it;
// "./..." therefore loads the whole module. Recursive walks skip testdata,
// hidden and underscore-prefixed directories, exactly like the go tool; a
// directory named explicitly is always loaded, which is how the analyzer's
// own fixture packages under testdata are linted.
func Load(dir string, patterns ...string) (*Program, error) {
	mod, err := FindModule(dir)
	if err != nil {
		return nil, err
	}
	l := newLoader(mod)
	var dirs []string
	seen := make(map[string]bool)
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := pat, false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root, recursive = rest, true
			if root == "" || root == "." {
				root = "."
			}
		} else if pat == "..." {
			root, recursive = ".", true
		}
		if !filepath.IsAbs(root) {
			root = filepath.Join(dir, root)
		}
		if !recursive {
			add(root)
			continue
		}
		walked, err := walkPackageDirs(root)
		if err != nil {
			return nil, err
		}
		for _, d := range walked {
			add(d)
		}
	}
	prog := &Program{Module: mod, Fset: l.fset}
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			// A broken package must not hide the findings of the rest
			// of the module: record the failure and keep loading. The
			// cpqlint command turns a non-empty Failed into a non-zero
			// exit even when every loaded package is clean.
			prog.Failed = append(prog.Failed, LoadError{Dir: d, Err: err})
			continue
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool {
		return prog.Packages[i].ImportPath < prog.Packages[j].ImportPath
	})
	return prog, nil
}

// walkPackageDirs returns every directory under root that contains at least
// one non-test Go file, skipping testdata, hidden and underscore-prefixed
// directories below the root.
func walkPackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != root {
			base := filepath.Base(path)
			if base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") {
				return filepath.SkipDir
			}
		}
		names, err := goFileNames(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
