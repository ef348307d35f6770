#!/bin/sh
# ci.sh — the repository's check suite: formatting, vet, build, the
# reachability gate (no internal package that only its own tests import),
# the fuzz seed corpora's presence, the full test suite (the hot-path
# source rules of DESIGN.md §7 among it), the race detector over the
# whole module (the parallel K-CPQ engine and the sharded buffer pool
# make every package fair game for concurrency bugs) and repeatedly over
# the scheduling-dependent tests, and one run of every binary that has no
# tests.
#
# Usage:
#   ./ci.sh            run every gate
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
#   ./ci.sh paper      regenerate every figure at full scale (about a
#                      minute and a quarter) and diff the report against
#                      results_full.txt, wall times masked
set -eu

# bench is a smoke pass, not a gate: a few iterations per Go benchmark
# case, two seconds per workload of the repository's benchmark (which checks
# every result against its oracle). Timings this short decide nothing;
# compare full `go run -C benchmark .` reports with its -compare instead.
bench() {
	go test -run '^$' -bench 'BenchmarkFig4Algorithms1CP|BenchmarkFig7KCP' -benchtime 1x -benchmem .
	# The smallest cells of the default-parallelism curve (EXPERIMENTS.md
	# note 25), where the size rule keeps the default sequential.
	go test -run '^$' -bench 'BenchmarkDefaultVsSequential/n=(10|100)$' -benchtime 100x -benchmem .
	# The largest bichromatic cells, where the task engine's leaf batch reads
	# each leaf once per expansion (EXPERIMENTS.md note 29): the default
	# call beside the sequential one at each K.
	go test -run '^$' -bench 'BenchmarkDefaultVsSequential/n=100000/k=(1|100|10000)/(default|sequential)$' -benchtime 5x -benchmem .
	# The node cache's worth (EXPERIMENTS.md note 26): a cache that holds
	# the trees, one they outgrow and none.
	go test -run '^$' -bench 'BenchmarkNodeCache' -benchtime 5x -benchmem .
	go test -run '^$' -bench 'BenchmarkPairHeap|BenchmarkSweepLeafScan|BenchmarkBoundCandidate|BenchmarkSemiClosestPairsBatched|BenchmarkWithinDistance' -benchtime 100x -benchmem ./internal/core
	go test -run '^$' -bench 'BenchmarkInsert|BenchmarkBulkLoadSTR|BenchmarkNodeCacheHit|BenchmarkReadNodeInto' -benchtime 100x -benchmem ./internal/rtree
	# The read path's layer numbers (EXPERIMENTS.md note 28), at one and two
	# readers on one stripe.
	go test -run '^$' -bench 'BenchmarkBufferViewHitParallel' -benchtime 100x -cpu 1,2 ./internal/storage
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
	# The warm-query allocation budget (DESIGN.md §10): what a K-CPQ
	# allocates depends on K alone, and the incremental join allocates
	# nothing per node read. The core test skips itself under -race and the
	# join's is left out of -race builds, so this line, without it, is the
	# one place they are sure to run.
	go test -count=1 -run 'TestKCPQSteadyStateAllocs|TestReadNodeIntoWarmZeroAlloc|TestInsertWarmAllocs|TestJoinAllocs' ./internal/core ./internal/rtree ./internal/incremental
	# The leaf order (DESIGN.md §8): every write path stores leaves
	# x-ordered, and the leaf scan answers exactly from pages that are not.
	go test -count=1 -run 'TestLeafOrderOnEveryWritePath|TestUnorderedLeafTwins' ./internal/rtree ./internal/core
	go test -run 'FuzzMetricsExposition' ./internal/obs
	go test -run 'TestExplainGoldenRoundTrip|FuzzExplainRoundTrip' ./internal/obs/explain
}

# paper reruns `cpqbench -out` at the paper's sizes and diffs the report
# against the committed results_full.txt. Every cell is a counter and
# reproduces exactly at -parallel 1 (the default), except two wall-clock
# fields that mask hides on both sides.
paper() {
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	go run ./cmd/cpqbench -out "$tmp/results.txt" >/dev/null
	mask results_full.txt >"$tmp/want"
	mask "$tmp/results.txt" >"$tmp/got"
	diff "$tmp/want" "$tmp/got"
}

# mask blanks the wall times of a cpqbench report: the total wall time
# line, and the time column of the sorts table, whose padding follows the
# widest time, so that table's spacing is collapsed too.
mask() {
	awk '
		/^=== / { sorts = ($2 == "sorts:") }
		/^total wall time:/ { $0 = "total wall time: *" }
		sorts && NF == 3 && $2 ~ /^[0-9]+$/ { $3 = "*" }
		sorts { $1 = $1 }
		{ print }
	' "$1"
}

# reach fails on an island: an internal package that neither the facade,
# a command, an example nor the benchmark module depends on is exercised
# by nothing but its own tests. It also keeps internal/shard out of
# everything but the benchmark module.
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
	# The shard executor is reached by the benchmark's probes only: a facade
	# query runs the parallel engine on the indexes' own trees, and the
	# per-call drain, partition and bulk-load must not come back through it.
	if go list -deps . ./cmd/... ./examples/... | grep -qx 'repro/internal/shard'; then
		echo "repro/internal/shard is imported by the facade, a command or an example" >&2
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
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -k 5 -parallel 2
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -k 5 -explain
	# -parallel 1 is the paper's sequential algorithm: its plan label must
	# not name workers, though the default runs these four-level trees on
	# the task engine wherever GOMAXPROCS > 1.
	go run ./cmd/cpqgen -n 5000 -seed 3 -out "$tmp/p5k.csv"
	go run ./cmd/cpqgen -n 5000 -seed 4 -out "$tmp/q5k.csv"
	plan=$(go run ./cmd/cpqquery -p "$tmp/p5k.csv" -q "$tmp/q5k.csv" -k 5 -parallel 1 -explain -quiet)
	case $plan in
	*par=* | "") seq=no ;;
	*"QUERY HEAP k=5"*) seq=yes ;;
	*) seq=no ;;
	esac
	if [ "$seq" != yes ]; then
		echo "cpqquery -parallel 1 did not run sequentially:" >&2
		echo "$plan" >&2
		exit 1
	fi
	go run ./cmd/cpqquery -p "$tmp/p.csv" -k 5 -self
	go run ./cmd/cpqquery -p "$tmp/p.csv" -k 5 -self -algorithm STD
	go run ./cmd/cpqquery -p "$tmp/p.csv" -k 5 -self -watch
	go run ./cmd/cpqquery -p "$tmp/p.csv" -k 5 -self -explain
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -semi -quiet
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -k 5 -incremental SML
	go run ./cmd/cpqquery -p "$tmp/p.csv" -q "$tmp/q.csv" -k 5 -incremental BAS
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
	go vet ./...
	go build ./...
	reach
	# The fuzz seed corpora the tier-1 suite replays must not silently
	# vanish: an empty corpus dir makes `go test` pass while fuzzing nothing.
	for corpus in internal/rtree/testdata/fuzz internal/geom/testdata/fuzz internal/obs/testdata/fuzz internal/obs/explain/testdata/fuzz internal/core/testdata/fuzz; do
		if [ -z "$(ls "$corpus" 2>/dev/null)" ]; then
			echo "fuzz seed corpus missing or empty: $corpus" >&2
			exit 1
		fi
	done
	obs
	go test ./...
	# The facade's default parallelism resolves to the sequential path at
	# GOMAXPROCS 1 and to the task engine above it: run the facade's tests
	# on both sides.
	go test -cpu 1,2 .
	go test -race ./...
	# One -race pass sees one interleaving: the tests whose outcome depends
	# on how the parallel engine's workers are scheduled run again, twenty
	# times (-short trims the largest inputs, which the passes above ran in
	# full), the fault sweep's parallel rows among them, and the sharded
	# executor's run five: its shard joins follow one another, and each
	# races the task engine's workers at Parallelism 4. The twenty passes
	# take seven to eleven minutes on two cores, up to past go test's
	# default ten-minute timeout. The node cache's lock-free slots get the same twenty passes,
	# and so do the buffer pool's concurrent tests, over its per-shard
	# counters and page table.
	go test -race -short -count=20 -timeout 30m -run 'Parallel|TestSweepParallelEquivalence|TestConcurrentQueriesShareFreeList|TestNodeCacheConcurrentInvalidate|TestBufferPoolConcurrentAccess|TestShardedPoolConcurrent' ./internal/core ./internal/rtree ./internal/storage
	go test -race -count=5 -run 'TestShardedMatchesUnshardedParallelism' ./internal/shard
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
bench) bench ;;
obs) obs ;;
paper) paper ;;
*)
	echo "usage: $0 [all|bench|obs|paper]" >&2
	exit 2
	;;
esac
