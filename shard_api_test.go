package cpq

import (
	"math"
	"testing"
)

// TestWithShardsMatchesUnsharded is the facade-level equivalence check:
// the sharded bichromatic queries return bit-identical distances and tie
// order to the monolithic join.
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
	for _, shards := range []int{2, 8} {
		got, _, err := KClosestPairs(p, q, 10, WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("shards=%d: result length: want %d, got %d", shards, len(want), len(got))
		}
		for i := range want {
			if math.Float64bits(want[i].Dist) != math.Float64bits(got[i].Dist) {
				t.Fatalf("shards=%d pair %d: distance: want %v, got %v", shards, i, want[i].Dist, got[i].Dist)
			}
			if want[i].RefP != got[i].RefP || want[i].RefQ != got[i].RefQ {
				t.Fatalf("shards=%d pair %d: tie order: want (%d,%d), got (%d,%d)",
					shards, i, want[i].RefP, want[i].RefQ, got[i].RefP, got[i].RefQ)
			}
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
	if math.Float64bits(wantPair.Dist) != math.Float64bits(gotPair.Dist) ||
		wantPair.RefP != gotPair.RefP || wantPair.RefQ != gotPair.RefQ {
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

// TestWithShardsCapsTileCount pins the cap on the tile count: the plan is
// tiles^2 shard pairs, so a count far above what the input can fill must
// not be taken literally (uncapped, this query processes 249,000 node
// pairs against 99 at four tiles).
func TestWithShardsCapsTileCount(t *testing.T) {
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
	got, stats, rep, err := Explain(p, q, 10, WithShards(1000))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result length: want %d, got %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("pair %d: want %+v, got %+v", i, want[i], got[i])
		}
	}
	if stats.NodePairsProcessed >= 1000 {
		t.Fatalf("WithShards(1000) on 500 x 500 points processed %d node pairs", stats.NodePairsProcessed)
	}
	if wantTiles := 1000 / (2 * 21); rep.Plan.Shards != wantTiles {
		t.Fatalf("plan reports %d shards, want the effective %d", rep.Plan.Shards, wantTiles)
	}
}
