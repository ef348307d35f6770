// Package shard is a lint fixture for the goroutine walk's engine boundary:
// a worker of another package that calls the engine's exported entry point
// runs a query on state that call owns, so what lies below the entry point
// is not on a shared path and must not be flagged.
package shard

import (
	"repro/internal/lint/testdata/src/bufferdiscipline/internal/core"
	"repro/internal/storage"
)

// run spawns workers that each run a whole query, directly and through a
// helper.
func run(pool *storage.BufferPool) {
	go core.Query(pool)
	go func() { work(pool) }()
}

func work(pool *storage.BufferPool) { core.Query(pool) }
