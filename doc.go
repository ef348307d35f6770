// Package cpq is a Go implementation of the closest-pair query algorithms
// of Corral, Manolopoulos, Theodoridis and Vassilakopoulos, "Closest Pair
// Queries in Spatial Databases" (SIGMOD 2000), together with the full
// substrate the paper assumes: a paged storage engine with LRU buffer
// management, a disk-based R*-tree, and the incremental distance-join
// baseline of Hjaltason & Samet (SIGMOD 1998).
//
// The package answers, over two point sets P and Q each indexed by an
// R*-tree:
//
//   - 1-CPQ — the pair (p, q) ∈ P × Q with the smallest distance;
//   - K-CPQ — the K such pairs with the K smallest distances;
//   - self-CPQ — the K closest pairs within a single set;
//   - semi-CPQ — for each p ∈ P its nearest q ∈ Q;
//   - incremental joins — pairs streamed in ascending distance order.
//
// Five algorithms are provided (Naive, Exhaustive, Simple, Sorted
// Distances, Heap), selected with WithAlgorithm. Each runs under the
// winners of the paper's experimental study — tie-break strategy T1,
// fix-at-root for trees of different heights, the MAXMAXDIST K-pruning
// rule; the alternatives the study compares are reproduced by
// cmd/cpqbench, not offered as query options.
//
// # Quick start
//
//	p, _ := cpq.BuildIndex(hotels)          // []cpq.Point
//	q, _ := cpq.BuildIndex(restaurants)
//	pair, stats, _ := cpq.ClosestPair(p, q) // HEAP algorithm by default
//	fmt.Println(pair.P, pair.Q, pair.Dist, stats.Accesses())
//
// Indexes live on fixed-size pages (1 KB with node capacity M=21 by
// default, the paper's setup) behind an LRU buffer pool whose miss counter
// is the paper's "disk accesses" metric. Use WithPath to put an index on
// disk, and OpenIndex to reopen it.
package cpq
