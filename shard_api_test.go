package cpq

import (
	"slices"
	"testing"
)

// TestWithShardsMatchesUnsharded is the facade-level equivalence check:
// WithShards runs the parallel engine over the same trees, so the
// bichromatic queries return the monolithic join's pairs, refs and order
// for every tile count.
func TestWithShardsMatchesUnsharded(t *testing.T) {
	ptsP := randomPoints(41, 800, 0)
	ptsQ := randomPoints(42, 800, 0)
	p, err := BuildIndex(ptsP)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(ptsQ)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()

	want, _, err := KClosestPairs(p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 8, 1000} {
		got, _, err := KClosestPairs(p, q, 10, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("shards=%d: got %+v, want %+v", shards, got, want)
		}
	}

	wantPair, _, err := ClosestPair(p, q)
	if err != nil {
		t.Fatal(err)
	}
	gotPair, _, err := ClosestPair(p, q, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if gotPair != wantPair {
		t.Fatalf("sharded ClosestPair differs: want %+v, got %+v", wantPair, gotPair)
	}
}

// TestWithShardsOneTileIsMonolithic pins that t <= 1 keeps the
// monolithic path (no partitioning cost, identical stats semantics).
func TestWithShardsOneTileIsMonolithic(t *testing.T) {
	p, err := BuildIndex(randomPoints(43, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(44, 200, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	want, wantStats, err := KClosestPairs(p, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := KClosestPairs(p, q, 5, WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("result length: want %d, got %d", len(want), len(got))
	}
	if wantStats.NodePairsProcessed != gotStats.NodePairsProcessed {
		t.Fatalf("WithShards(1) changed traversal: %d vs %d node pairs",
			wantStats.NodePairsProcessed, gotStats.NodePairsProcessed)
	}
}

// TestWithShardsBoundedWork: a tile count far above what the input can
// fill costs no more work than the query itself. Under the old per-call
// partitioning, WithShards(1000) on these points planned a million tile
// pairs; uncapped, it processed 249,000 node pairs against 99 at four
// tiles.
func TestWithShardsBoundedWork(t *testing.T) {
	p, err := BuildIndex(randomPoints(45, 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	q, err := BuildIndex(randomPoints(46, 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	want, _, err := KClosestPairs(p, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := KClosestPairs(p, q, 10, WithShards(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if stats.NodePairsProcessed >= 1000 {
		t.Fatalf("WithShards(1000) on 500 x 500 points processed %d node pairs", stats.NodePairsProcessed)
	}
}
