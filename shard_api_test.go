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
