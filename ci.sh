#!/bin/sh
# ci.sh — the repository's check suite: formatting, vet, build, the
# reachability gate (no internal package that only its own tests import),
# the repo-specific static analyzer (cpqlint, DESIGN.md §7), the analyzer
# turned on itself, the full test suite, the race detector over the
# whole module (the parallel K-CPQ engine and the sharded buffer pool
# make every package fair game for concurrency bugs), and one run of
# every binary that has no tests.
#
# Usage:
#   ./ci.sh            run every gate
#   ./ci.sh lint       just the analyzer over the module
#                      (alias for `go run ./cmd/cpqlint ./...`,
#                      the single supported lint entry point)
#   ./ci.sh lint-self  the analyzer over its own sources, plus the
#                      fuzz seed-corpus presence check
#   ./ci.sh bench      does-it-run smoke of the Go benchmarks and of the
#                      repository's benchmark (benchmark/README.md); the
#                      numbers come from `go run -C benchmark .`
#   ./ci.sh obs        the observability gates: the zero-alloc tests on
#                      the disabled hook paths, the warm-query allocation
#                      budget and the leaf-order tests, the obs registry and
#                      explain capture under the race detector, a
#                      Prometheus-exposition parse smoke test (the fuzz
#                      target over its seed corpus), and the EXPLAIN
#                      golden round-trip with its fuzz corpus
set -eu

lint() {
	# One pass, one load of the module: the default check set contains the
	# ctxflow (DESIGN.md §11) and shareguard (§12) groups, which a test in
	# cmd/cpqlint pins, so neither needs a run of its own. -budget fails
	# the build if any single check runs past 30s, so an interprocedural
	# pass that regresses (the ctxflow summaries, the shareguard fixpoints)
	# shows up here instead of silently stretching every CI run.
	go run ./cmd/cpqlint -timing -budget 30s ./...
}

# lint_self guards the analyzer's own hygiene: cpqlint must hold its own
# packages to the same invariants it enforces on the engine, and the
# fuzz seed corpora the tier-1 suite replays must not silently vanish
# (an empty corpus dir makes `go test` pass while fuzzing nothing).
lint_self() {
	go run ./cmd/cpqlint internal/lint internal/lint/ssa ./cmd/...
	for corpus in internal/rtree/testdata/fuzz internal/geom/testdata/fuzz internal/obs/testdata/fuzz internal/obs/explain/testdata/fuzz internal/core/testdata/fuzz; do
		if [ -z "$(ls "$corpus" 2>/dev/null)" ]; then
			echo "fuzz seed corpus missing or empty: $corpus" >&2
			exit 1
		fi
	done
}

# bench is a smoke pass, not a gate: one iteration per Go benchmark case,
# two seconds per workload of the repository's benchmark (which checks
# every result against its oracle). Timings this short decide nothing;
# compare full `go run -C benchmark .` reports with its -compare instead.
bench() {
	go test -run '^$' -bench 'BenchmarkFig4Algorithms1CP|BenchmarkFig7KCP' -benchtime 1x -benchmem .
	go test -run '^$' -bench 'BenchmarkPairHeap|BenchmarkSweepLeafScan|BenchmarkBoundCandidate' -benchtime 100x -benchmem ./internal/core
	go run -C benchmark . -seed 1 -seconds 2
}

# obs gates the observability layer: hooks must stay free when disabled
# (the AllocsPerRun tests), the registry must be safe under concurrent
# writers and scrapers (-race), the Prometheus text exposition must
# parse (the fuzz target replayed over its committed seed corpus), and
# the EXPLAIN snapshot encoding must stay byte-stable (the golden
# round-trip and its fuzz corpus).
obs() {
	go test -race ./internal/obs
	go test -race ./internal/obs/explain
	go test -run 'TestDisabledHooksZeroAlloc' ./internal/core
	go test -run 'TestCacheTraceDisabledZeroAlloc' ./internal/rtree
	go test -run 'TestNilCaptureZeroAlloc' ./internal/obs/explain
	go test -run 'TestShardDisabledHooksZeroAlloc' ./internal/shard
	# The warm-query allocation budget (DESIGN.md §10): what a K-CPQ
	# allocates depends on K alone. The core test skips itself under -race,
	# so this line, without it, is the one place it is sure to run.
	go test -count=1 -run 'TestKCPQSteadyStateAllocs|TestReadNodeIntoWarmZeroAlloc' ./internal/core ./internal/rtree
	# The leaf order (DESIGN.md §8): every write path stores leaves
	# x-ordered, and the leaf scan answers exactly from pages that are not.
	go test -count=1 -run 'TestLeafOrderOnEveryWritePath|TestUnorderedLeafTwins' ./internal/rtree ./internal/core
	go test -run 'FuzzMetricsExposition' ./internal/obs
	go test -run 'TestExplainGoldenRoundTrip|FuzzExplainRoundTrip' ./internal/obs/explain
}

# reach fails on an island: an internal package that neither the facade,
# a command, an example nor the benchmark module depends on is exercised
# by nothing but its own tests.
reach() {
	# A reached internal package is listed twice below, an island once.
	islands=$({
		{
			go list -deps . ./cmd/... ./examples/...
			go list -C benchmark -deps .
		} | sort -u
		go list ./internal/...
	} | sort | uniq -u | grep '^repro/internal/' || true)
	if [ -n "$islands" ]; then
		echo "islands, imported by nothing outside their own tests:" "$islands" >&2
		exit 1
	fi
}

# smoke runs the binaries that have no tests of their own; each must exit 0.
smoke() {
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	for ex in examples/*/; do
		go run "./$ex" >/dev/null
	done
	go run ./cmd/cpqgen -n 1000 -seed 1 -out "$tmp/p.csv"
	go run ./cmd/cpqgen -n 1000 -seed 2 -out "$tmp/q.csv"
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -k 5
	go run ./cmd/cpqquery -p "$tmp/p.csv" -k 5 -self
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -semi -quiet
	# cpqtree reads an index file and no command writes one, so build it
	# through the facade; a file named on the command line compiles inside
	# this module wherever it lies.
	cat >"$tmp/mkidx.go" <<-'EOF'
		package main

		import (
			"log"
			"math/rand"
			"os"

			cpq "repro"
		)

		func main() {
			pts := make([]cpq.Point, 1000)
			for i := range pts {
				pts[i] = cpq.Point{X: rand.Float64(), Y: rand.Float64()}
			}
			idx, err := cpq.BuildIndex(pts, cpq.WithPath(os.Args[1]))
			if err != nil {
				log.Fatal(err)
			}
			if err := idx.Close(); err != nil {
				log.Fatal(err)
			}
		}
	EOF
	go run "$tmp/mkidx.go" "$tmp/p.idx"
	go run ./cmd/cpqtree -index "$tmp/p.idx"
}

all() {
	unformatted=$(gofmt -l .)
	if [ -n "$unformatted" ]; then
		echo "gofmt needed on:" "$unformatted" >&2
		exit 1
	fi
	# Keeps the interface-based sort package out of the leaf scan and the
	# expansion kernel (DESIGN.md §8, §10). It guards that import only: what
	# keeps sorting off the hot path is measured by ./ci.sh bench.
	if grep -n '"sort"' internal/core/sweep.go internal/core/kernel.go; then
		echo "the leaf scan and the expansion kernel must not import sort" >&2
		exit 1
	fi
	go vet ./...
	go build ./...
	reach
	lint
	lint_self
	obs
	go test ./...
	go test -race ./...
	# The benchmark is a module of its own (benchmark/go.mod), outside
	# ./...: compile and test it here so an engine change cannot break it
	# unnoticed.
	go vet -C benchmark .
	go test -C benchmark .
	smoke
}

set -x
case "${1:-all}" in
all) all ;;
lint) lint ;;
lint-self) lint_self ;;
bench) bench ;;
obs) obs ;;
*)
	echo "usage: $0 [all|lint|lint-self|bench|obs]" >&2
	exit 2
	;;
esac
