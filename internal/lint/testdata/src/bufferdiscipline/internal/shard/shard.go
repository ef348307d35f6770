// Package shard is a lint fixture for the goroutine walk's engine boundary:
// a worker of another package that calls the engine's exported entry point
// runs a query on state that call owns, so the sequential drivers below it
// are not on a shared path and must not be flagged.
package shard

import "repro/internal/lint/testdata/src/bufferdiscipline/internal/core"

// run spawns workers that each run a whole query, directly and through a
// helper.
func run() {
	go core.Query()
	go func() { work() }()
}

func work() { core.Query() }
