// Package core is a lint fixture nested under an internal/core path: the
// query engine, whose exported API the goroutine walk stops at when
// another package calls it. A go statement inside the engine is a root of
// the walk in its own right, so a Get below it is flagged; the exported
// entry point's Get is not, because its callers' goroutines stop at it
// (see ../shard).
package core

import "repro/internal/storage"

// spawnWorkers starts an engine goroutine.
func spawnWorkers(pool *storage.BufferPool) {
	go worker(pool)
}

// worker reads through Get on an engine goroutine: a violation.
func worker(pool *storage.BufferPool) {
	if _, err := pool.Get(1); err != nil {
		panic(err)
	}
}

// Query is the engine's exported entry point, called from other packages'
// goroutines only; its Get is not on a path the walk reaches.
func Query(pool *storage.BufferPool) {
	if _, err := pool.Get(2); err != nil {
		panic(err)
	}
}
