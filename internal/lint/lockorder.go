package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/lint/ssa"
)

// LockOrder builds a static lock-ordering graph over the engine's
// sync.Mutex/RWMutex fields and flags two hazards:
//
//   - a cycle: lock A is taken while B is held on one path and B while
//     A is held on another — two goroutines interleaving those paths
//     deadlock;
//   - a same-lock self-edge: an instance of a lock is taken while
//     another instance of the same (static) lock may be held. The
//     sharded buffer pool is the motivating case — shard locks have no
//     fixed order, so holding two at once deadlocks against any peer
//     doing the same in the opposite shard order.
//
// Held-lock sets are propagated over the SSA-lite CFG (may-analysis,
// union at joins); a deferred Unlock keeps its lock held to function
// exit, matching runtime behavior. Calls to statically resolvable
// module functions are summarized by the set of locks they (or their
// callees) may acquire, so an acquisition buried two calls deep still
// produces the ordering edge at the outer call site. Goroutine bodies
// start with an empty held set — a spawned function does not inherit
// its spawner's locks.
type LockOrder struct {
	// Scopes are import-path fragments; only mutexes declared in these
	// packages participate.
	Scopes []string
}

// NewLockOrder returns the check configured for the engine's
// concurrency-bearing packages.
func NewLockOrder() *LockOrder {
	return &LockOrder{Scopes: []string{"internal/storage", "internal/rtree", "internal/core"}}
}

// Name implements Check.
func (c *LockOrder) Name() string { return "lockorder" }

// lockEdge is one ordered acquisition: to was locked while from was
// held.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
}

// Run implements Check.
func (c *LockOrder) Run(prog *Program) []Diagnostic {
	g := prog.Callgraph()

	// Phase 1: per-function held-set analysis. Records direct ordering
	// edges, per-function acquisition summaries, and call sites made
	// while holding locks.
	acquired := make(map[any]map[*types.Var]bool)
	type heldCall struct {
		held   []*types.Var
		callee *types.Func
		pos    token.Pos
	}
	var calls []heldCall
	var edges []lockEdge
	for _, pkg := range prog.Packages {
		for _, fs := range funcsOf(prog, pkg) {
			key := fs.node()
			if key == nil {
				continue
			}
			acq, es, cs := c.analyzeFunc(prog, fs)
			acquired[key] = acq
			edges = append(edges, es...)
			for _, hc := range cs {
				calls = append(calls, heldCall{hc.held, hc.callee, hc.pos})
			}
		}
	}

	// Phase 2: close summaries over the callgraph — the locks a
	// function may acquire include those of everything it can call.
	mayAcquire := make(map[any]map[*types.Var]bool)
	var closure func(key any, seen map[any]bool) map[*types.Var]bool
	closure = func(key any, seen map[any]bool) map[*types.Var]bool {
		if m, ok := mayAcquire[key]; ok {
			return m
		}
		if seen[key] {
			return acquired[key]
		}
		seen[key] = true
		m := make(map[*types.Var]bool)
		for v := range acquired[key] {
			m[v] = true
		}
		for _, succ := range g.edges[key] {
			for v := range closure(succ, seen) {
				m[v] = true
			}
		}
		mayAcquire[key] = m
		return m
	}
	for key := range acquired {
		closure(key, make(map[any]bool))
	}

	// Phase 3: interprocedural edges from calls made under locks.
	for _, hc := range calls {
		for v := range mayAcquire[any(hc.callee)] {
			for _, h := range hc.held {
				edges = append(edges, lockEdge{from: h, to: v, pos: hc.pos})
			}
		}
	}

	return c.report(prog, edges)
}

// lockEventKind distinguishes the primitive held-set transitions.
type lockEventKind int

const (
	evLock lockEventKind = iota
	evUnlock
	evCall
)

type lockEvent struct {
	kind   lockEventKind
	lock   *types.Var
	callee *types.Func
	pos    token.Pos
}

// analyzeFunc runs the held-set fixpoint over one function and returns
// its acquisition summary, direct ordering edges, and under-lock calls.
func (c *LockOrder) analyzeFunc(prog *Program, fs FuncSource) (map[*types.Var]bool, []lockEdge, []struct {
	held   []*types.Var
	callee *types.Func
	pos    token.Pos
}) {
	info := fs.Pkg.Info
	f := prog.IR(fs)
	events := make(map[*ssa.Block][]lockEvent)
	acq := make(map[*types.Var]bool)
	for _, b := range f.Blocks {
		for _, n := range b.Nodes {
			evs := c.eventsOf(info, n)
			events[b] = append(events[b], evs...)
			for _, e := range evs {
				if e.kind == evLock {
					acq[e.lock] = true
				}
			}
		}
	}

	// May-held fixpoint: in[b] = union out[preds]; out = transfer(in).
	in := make(map[*ssa.Block]map[*types.Var]bool)
	out := make(map[*ssa.Block]map[*types.Var]bool)
	for _, b := range f.Blocks {
		in[b] = map[*types.Var]bool{}
		out[b] = map[*types.Var]bool{}
	}
	apply := func(b *ssa.Block, record bool, edges *[]lockEdge, calls *[]struct {
		held   []*types.Var
		callee *types.Func
		pos    token.Pos
	}) map[*types.Var]bool {
		held := make(map[*types.Var]bool, len(in[b]))
		for v := range in[b] {
			held[v] = true
		}
		for _, e := range events[b] {
			switch e.kind {
			case evLock:
				if record {
					for h := range held {
						*edges = append(*edges, lockEdge{from: h, to: e.lock, pos: e.pos})
					}
				}
				held[e.lock] = true
			case evUnlock:
				delete(held, e.lock)
			case evCall:
				if record && len(held) > 0 {
					hs := make([]*types.Var, 0, len(held))
					for v := range held {
						hs = append(hs, v)
					}
					*calls = append(*calls, struct {
						held   []*types.Var
						callee *types.Func
						pos    token.Pos
					}{hs, e.callee, e.pos})
				}
			}
		}
		return held
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			inb := in[b]
			for _, p := range b.Preds {
				for v := range out[p] {
					if !inb[v] {
						inb[v] = true
						changed = true
					}
				}
			}
			nout := apply(b, false, nil, nil)
			if len(nout) != len(out[b]) {
				out[b] = nout
				changed = true
			} else {
				for v := range nout {
					if !out[b][v] {
						out[b] = nout
						changed = true
						break
					}
				}
			}
		}
	}
	var edges []lockEdge
	var calls []struct {
		held   []*types.Var
		callee *types.Func
		pos    token.Pos
	}
	for _, b := range f.Blocks {
		apply(b, true, &edges, &calls)
	}
	return acq, edges, calls
}

// eventsOf extracts the lock events of one recorded block node, in
// traversal order. Deferred statements are skipped entirely: a deferred
// Unlock keeps the lock held (which the held-set fixpoint models by
// never seeing the release), and deferred work runs outside the block's
// sequential order. Goroutine spawns are skipped too — the spawned body
// is analyzed as its own function with an empty held set.
func (c *LockOrder) eventsOf(info *types.Info, n ast.Node) []lockEvent {
	var evs []lockEvent
	ssa.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr)
			if ok {
				if v := c.mutexOf(info, sel.X); v != nil {
					switch sel.Sel.Name {
					case "Lock", "RLock":
						evs = append(evs, lockEvent{kind: evLock, lock: v, pos: m.Lparen})
						return true
					case "Unlock", "RUnlock":
						evs = append(evs, lockEvent{kind: evUnlock, lock: v, pos: m.Lparen})
						return true
					}
				}
			}
			if fn := staticCallee(info, m); fn != nil {
				evs = append(evs, lockEvent{kind: evCall, callee: fn, pos: m.Lparen})
			}
		}
		return true
	})
	return evs
}

// mutexOf resolves an expression to a scoped mutex variable: a struct
// field or plain variable of type sync.Mutex / sync.RWMutex declared in
// one of the configured packages.
func (c *LockOrder) mutexOf(info *types.Info, e ast.Expr) *types.Var {
	var v *types.Var
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			v, _ = sel.Obj().(*types.Var)
		} else if obj, ok := info.Uses[e.Sel].(*types.Var); ok {
			v = obj // package-qualified variable
		}
	case *ast.Ident:
		v, _ = info.Uses[e].(*types.Var)
	}
	if v == nil || v.Pkg() == nil || !pathInScope(v.Pkg().Path(), c.Scopes) {
		return nil
	}
	if !isMutexType(v.Type()) {
		return nil
	}
	return v
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// report deduplicates edges, finds self-edges and cycles, and renders
// diagnostics.
func (c *LockOrder) report(prog *Program, edges []lockEdge) []Diagnostic {
	type key struct{ from, to *types.Var }
	first := make(map[key]token.Pos)
	adj := make(map[*types.Var]map[*types.Var]bool)
	for _, e := range edges {
		k := key{e.from, e.to}
		if p, ok := first[k]; !ok || e.pos < p {
			first[k] = e.pos
		}
		if adj[e.from] == nil {
			adj[e.from] = make(map[*types.Var]bool)
		}
		adj[e.from][e.to] = true
	}
	// reaches reports whether a path from -> ... -> to exists.
	reaches := func(from, to *types.Var) bool {
		seen := map[*types.Var]bool{}
		stack := []*types.Var{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			for s := range adj[n] {
				stack = append(stack, s)
			}
		}
		return false
	}
	keys := make([]key, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return first[keys[i]] < first[keys[j]] })
	var diags []Diagnostic
	for _, k := range keys {
		pos := prog.position(first[k])
		switch {
		case k.from == k.to:
			diags = append(diags, Diagnostic{
				Pos:   pos,
				Check: c.Name(),
				Message: fmt.Sprintf(
					"%s acquired while another instance of %s may already be held; instances of one lock have no fixed order (shard deadlock risk)",
					fieldName(k.from), fieldName(k.to)),
			})
		case reaches(k.to, k.from):
			diags = append(diags, Diagnostic{
				Pos:   pos,
				Check: c.Name(),
				Message: fmt.Sprintf(
					"%s acquired while %s is held, but the reverse order also exists; lock-order cycle deadlocks under concurrency",
					fieldName(k.to), fieldName(k.from)),
			})
		}
	}
	return diags
}

// fieldName renders a field as Struct.field for messages.
func fieldName(f *types.Var) string {
	return fmt.Sprintf("%s.%s", ownerName(f), f.Name())
}

// ownerName finds the name of the struct type declaring field f, falling
// back to the package name.
func ownerName(f *types.Var) string {
	if pkg := f.Pkg(); pkg != nil {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return tn.Name()
				}
			}
		}
		return pkg.Name()
	}
	return "?"
}
