package lint

import (
	"fmt"
	"go/types"
)

// DisciplineRule bans a set of methods of one type on goroutine-reachable
// paths.
type DisciplineRule struct {
	// Pkg is the import-path fragment of the package declaring the type
	// (matched with pathInScope).
	Pkg string
	// Type is the name of the type whose methods are restricted.
	Type string
	// Methods are the method names concurrent code must not call.
	Methods []string
	// Advice completes the diagnostic: what concurrent code should do
	// instead.
	Advice string
}

// BufferDiscipline enforces the storage layer's concurrency contracts.
//
// BufferPool: Get returns the pooled page slice, which a concurrent
// eviction may reuse while the caller still reads it, so any function
// reachable from a goroutine spawn must use View (which pins the page
// under the shard lock for the duration of the callback).
//
// NodeCache: Get and Add are the legal concurrent read path — a cache hit
// returns an immutable decoded node without touching BufferPool.View at
// all, and a miss publishes the fresh decode. The write side (Invalidate,
// Clear) belongs to the tree's single-writer mutation contract
// (writeNode/freeNode); a goroutine-reachable call to it means a query
// path is mutating the index, which the engine forbids.
//
// core.join: expandInto and scanLeaves are the sequential drivers' entry
// points — they assign the non-atomic auxiliary bound, offer into the
// shared K-heap and reuse the caller-owned destination buffer. The
// parallel engine's workers must instead pair beginExpand/finish with the
// shared atomic bound and call scanLeavesSweep against a worker-local
// K-heap; a goroutine-reachable call to the sequential pair is a data
// race waiting for a scheduler.
//
// The check finds every go statement in the analyzed packages, walks the
// callgraph from the spawned functions and flags reachable calls to the
// restricted methods.
type BufferDiscipline struct {
	Rules []DisciplineRule
}

// NewBufferDiscipline returns the check configured for
// internal/storage.BufferPool and internal/rtree.NodeCache.
func NewBufferDiscipline() *BufferDiscipline {
	return &BufferDiscipline{
		Rules: []DisciplineRule{
			{
				Pkg:     "internal/storage",
				Type:    "BufferPool",
				Methods: []string{"Get", "Put"},
				Advice:  "concurrent readers must use View",
			},
			{
				Pkg:     "internal/rtree",
				Type:    "NodeCache",
				Methods: []string{"Invalidate", "Clear"},
				Advice:  "cache writes belong to the single-writer mutation path; concurrent readers use Get/Add only",
			},
			{
				Pkg:     "internal/core",
				Type:    "join",
				Methods: []string{"expandInto", "scanLeaves"},
				Advice:  "these drive the sequential contract (the shared K-heap, the non-atomic bound, the caller-owned dst buffer); parallel workers use beginExpand/finish and scanLeavesSweep with per-worker state",
			},
		},
	}
}

// Name implements Check.
func (c *BufferDiscipline) Name() string { return "bufferdiscipline" }

// Run implements Check.
func (c *BufferDiscipline) Run(prog *Program) []Diagnostic {
	g := prog.Callgraph()
	reach := g.reachableFromGo()
	var diags []Diagnostic
	for node, spawn := range reach {
		for _, call := range g.calls[node] {
			rule := c.forbiddenBy(call.callee)
			if rule == nil {
				continue
			}
			spawnPos := prog.position(spawn)
			diags = append(diags, Diagnostic{
				Pos:   prog.position(call.pos),
				Check: c.Name(),
				Message: fmt.Sprintf(
					"(*%s).%s called on a path reachable from a goroutine (go statement at %s:%d); %s",
					rule.Type, call.callee.Name(), spawnPos.Filename, spawnPos.Line, rule.Advice),
			})
		}
	}
	return diags
}

// forbiddenBy returns the rule banning fn on concurrent paths, nil if fn is
// unrestricted.
func (c *BufferDiscipline) forbiddenBy(fn *types.Func) *DisciplineRule {
	for i := range c.Rules {
		rule := &c.Rules[i]
		named := false
		for _, m := range rule.Methods {
			if fn.Name() == m {
				named = true
				break
			}
		}
		if !named || fn.Pkg() == nil || !pathInScope(fn.Pkg().Path(), []string{rule.Pkg}) {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named2, ok := recv.(*types.Named); ok && named2.Obj().Name() == rule.Type {
			return rule
		}
	}
	return nil
}
