package cpq_test

import (
	"fmt"
	"log"

	cpq "repro"
)

// ExampleClosestPair finds the single closest pair between two indexed
// point sets (the paper's 1-CPQ).
func ExampleClosestPair() {
	p, err := cpq.BuildIndex([]cpq.Point{{X: 0, Y: 0}, {X: 5, Y: 5}, {X: 9, Y: 1}})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	q, err := cpq.BuildIndex([]cpq.Point{{X: 4, Y: 4}, {X: 20, Y: 20}})
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()

	pair, _, err := cpq.ClosestPair(p, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v — %v at distance %.3f\n", pair.P, pair.Q, pair.Dist)
	// Output: (5, 5) — (4, 4) at distance 1.414
}

// ExampleKClosestPairs finds the K closest pairs with a specific
// algorithm from the paper.
func ExampleKClosestPairs() {
	p, err := cpq.BuildIndex([]cpq.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	q, err := cpq.BuildIndex([]cpq.Point{{X: 0, Y: 1}, {X: 4, Y: 0}})
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()

	pairs, _, err := cpq.KClosestPairs(p, q, 2,
		cpq.WithAlgorithm(cpq.SortedDistancesAlgorithm))
	if err != nil {
		log.Fatal(err)
	}
	for _, pr := range pairs {
		fmt.Printf("%v — %v  %.3f\n", pr.P, pr.Q, pr.Dist)
	}
	// Output:
	// (0, 0) — (0, 1)  1.000
	// (1, 0) — (0, 1)  1.414
}

// ExampleNewIncrementalJoin streams pairs in ascending distance order
// using the Hjaltason & Samet baseline.
func ExampleNewIncrementalJoin() {
	p, err := cpq.BuildIndex([]cpq.Point{{X: 0, Y: 0}, {X: 10, Y: 0}})
	if err != nil {
		log.Fatal(err)
	}
	defer p.Close()
	q, err := cpq.BuildIndex([]cpq.Point{{X: 1, Y: 0}, {X: 12, Y: 0}})
	if err != nil {
		log.Fatal(err)
	}
	defer q.Close()

	it, err := cpq.NewIncrementalJoin(p, q, cpq.WithMaxPairs(2))
	if err != nil {
		log.Fatal(err)
	}
	for {
		pair, ok, err := it.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("%.0f\n", pair.Dist)
	}
	// Output:
	// 1
	// 2
}

// ExampleIndex_Nearest runs a plain nearest-neighbor query against one
// index.
func ExampleIndex_Nearest() {
	idx, err := cpq.BuildIndex([]cpq.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 10, Y: 10}})
	if err != nil {
		log.Fatal(err)
	}
	defer idx.Close()

	nn, err := idx.Nearest(cpq.Point{X: 2, Y: 3}, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%v at %.3f\n", nn[0].Point, nn[0].Dist)
	// Output: (3, 4) at 1.414
}
