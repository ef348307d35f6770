package cpq_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

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

// Example_quickstart indexes two small point sets and runs the
// closest-pair queries of the paper through the public API.
func Example_quickstart() {
	// Two tiny data sets: warehouses and stores of a delivery network.
	warehouses := []cpq.Point{
		{X: 2, Y: 3}, {X: 8, Y: 1}, {X: 5, Y: 9}, {X: 1, Y: 7}, {X: 9, Y: 8},
	}
	stores := []cpq.Point{
		{X: 3, Y: 4}, {X: 7, Y: 2}, {X: 4, Y: 8}, {X: 9, Y: 9}, {X: 0, Y: 0},
		{X: 6, Y: 6}, {X: 2, Y: 9},
	}

	w, err := cpq.BuildIndex(warehouses)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	s, err := cpq.BuildIndex(stores)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// 1-CPQ: the warehouse/store pair with the smallest distance.
	pair, stats, err := cpq.ClosestPair(w, s)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closest pair: warehouse %v — store %v, distance %.3f\n",
		pair.P, pair.Q, pair.Dist)
	fmt.Printf("cost: %d disk accesses\n\n", stats.Accesses())

	// K-CPQ: the three closest pairs, using the Sorted Distances algorithm.
	pairs, _, err := cpq.KClosestPairs(w, s, 3,
		cpq.WithAlgorithm(cpq.SortedDistancesAlgorithm))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("three closest pairs:")
	for i, p := range pairs {
		fmt.Printf("  %d. warehouse %v — store %v, distance %.3f\n", i+1, p.P, p.Q, p.Dist)
	}

	// Incremental join: stream pairs in ascending distance order.
	it, err := cpq.NewIncrementalJoin(w, s, cpq.WithMaxPairs(5))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nincremental join (first 5 pairs):")
	for {
		p, ok, err := it.Next()
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			break
		}
		fmt.Printf("  %v — %v  %.3f\n", p.P, p.Q, p.Dist)
	}

	// The index is a full spatial index: range and NN queries work too.
	nn, err := s.Nearest(cpq.Point{X: 5, Y: 5}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntwo stores nearest to (5,5): %v and %v\n", nn[0].Point, nn[1].Point)
	// Output:
	// closest pair: warehouse (9, 8) — store (9, 9), distance 1.000
	// cost: 0 disk accesses
	//
	// three closest pairs:
	//   1. warehouse (9, 8) — store (9, 9), distance 1.000
	//   2. warehouse (2, 3) — store (3, 4), distance 1.414
	//   3. warehouse (8, 1) — store (7, 2), distance 1.414
	//
	// incremental join (first 5 pairs):
	//   (9, 8) — (9, 9)  1.000
	//   (2, 3) — (3, 4)  1.414
	//   (5, 9) — (4, 8)  1.414
	//   (8, 1) — (7, 2)  1.414
	//   (1, 7) — (2, 9)  2.236
	//
	// two stores nearest to (5,5): (6, 6) and (3, 4)
}

// Example_tourism is the paper's motivating scenario (Section 1). One data
// set holds the locations of archeological sites, the other the most
// important holiday resorts; a K-CPQ discovers the K site/resort pairs
// with the smallest distances, so that tourists in a resort can easily
// visit the site of each pair — the value of K depending on the
// advertising budget.
func Example_tourism() {
	rng := rand.New(rand.NewSource(1821))

	// Archeological sites: clustered around a handful of ancient regions.
	regions := []cpq.Point{
		{X: 22.5, Y: 37.6}, // Peloponnese
		{X: 23.7, Y: 38.0}, // Attica
		{X: 22.4, Y: 39.9}, // Thessaly
		{X: 25.1, Y: 35.3}, // Crete
		{X: 27.1, Y: 37.7}, // Dodecanese
	}
	var sites []cpq.Point
	for i := 0; i < 4000; i++ {
		r := regions[rng.Intn(len(regions))]
		sites = append(sites, cpq.Point{
			X: r.X + rng.NormFloat64()*0.35,
			Y: r.Y + rng.NormFloat64()*0.25,
		})
	}

	// Holiday resorts: mostly coastal, drawn from a different pattern.
	var resorts []cpq.Point
	for i := 0; i < 800; i++ {
		t := rng.Float64()
		resorts = append(resorts, cpq.Point{
			X: 21.5 + t*6 + rng.NormFloat64()*0.4,
			Y: 35.0 + 5*rng.Float64() + rng.NormFloat64()*0.2,
		})
	}

	siteIdx, err := cpq.BuildIndex(sites)
	if err != nil {
		log.Fatal(err)
	}
	defer siteIdx.Close()
	resortIdx, err := cpq.BuildIndex(resorts)
	if err != nil {
		log.Fatal(err)
	}
	defer resortIdx.Close()

	// The advertising budget pays for ten brochures: K = 10.
	const budgetK = 10
	pairs, stats, err := cpq.KClosestPairs(siteIdx, resortIdx, budgetK,
		cpq.WithAlgorithm(cpq.HeapAlgorithm))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top %d site/resort pairs (HEAP algorithm, %d disk accesses):\n",
		budgetK, stats.Accesses())
	for i, p := range pairs {
		fmt.Printf("  %2d. site (%.3f, %.3f) ↔ resort (%.3f, %.3f): %.2f km apart\n",
			i+1, p.P.X, p.P.Y, p.Q.X, p.Q.Y, p.Dist*111) // ~111 km per degree
	}

	// Which resort should a new site museum partner with? Semi-CPQ gives
	// every site its nearest resort; here we just show the five best.
	semi, _, err := cpq.SemiClosestPairs(siteIdx, resortIdx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfive sites with a resort at their doorstep (semi-CPQ):")
	for i := 0; i < 5 && i < len(semi); i++ {
		fmt.Printf("  site (%.3f, %.3f) → resort (%.3f, %.3f), %.2f km\n",
			semi[i].P.X, semi[i].P.Y, semi[i].Q.X, semi[i].Q.Y, semi[i].Dist*111)
	}

	// The tourist board also wants to know the two most crowded spots of
	// the resort map itself: a self-CPQ.
	self, _, err := cpq.SelfKClosestPairs(resortIdx, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmost crowded resort pair: (%.3f, %.3f) and (%.3f, %.3f), %.2f km apart\n",
		self[0].P.X, self[0].P.Y, self[0].Q.X, self[0].Q.Y, self[0].Dist*111)
	// Output:
	// top 10 site/resort pairs (HEAP algorithm, 231 disk accesses):
	//    1. site (22.719, 39.672) ↔ resort (22.718, 39.673): 0.16 km apart
	//    2. site (23.331, 38.193) ↔ resort (23.332, 38.195): 0.26 km apart
	//    3. site (24.014, 38.217) ↔ resort (24.015, 38.219): 0.33 km apart
	//    4. site (22.824, 38.006) ↔ resort (22.826, 38.004): 0.33 km apart
	//    5. site (23.494, 37.880) ↔ resort (23.496, 37.881): 0.34 km apart
	//    6. site (22.425, 37.783) ↔ resort (22.423, 37.779): 0.48 km apart
	//    7. site (25.331, 35.341) ↔ resort (25.328, 35.338): 0.50 km apart
	//    8. site (27.509, 37.719) ↔ resort (27.511, 37.723): 0.56 km apart
	//    9. site (22.611, 39.914) ↔ resort (22.606, 39.916): 0.59 km apart
	//   10. site (23.500, 37.877) ↔ resort (23.496, 37.881): 0.62 km apart
	//
	// five sites with a resort at their doorstep (semi-CPQ):
	//   site (22.719, 39.672) → resort (22.718, 39.673), 0.16 km
	//   site (23.331, 38.193) → resort (23.332, 38.195), 0.26 km
	//   site (24.014, 38.217) → resort (24.015, 38.219), 0.33 km
	//   site (22.824, 38.006) → resort (22.826, 38.004), 0.33 km
	//   site (23.494, 37.880) → resort (23.496, 37.881), 0.34 km
	//
	// most crowded resort pair: (24.285, 39.707) and (24.290, 39.706), 0.59 km apart
}

// Example_overlap is a miniature of the paper's central experimental
// finding (Sections 4.3.2 and 5.1.2): closest-pair cost is extremely
// sensitive to the portion of overlap between the two data sets'
// workspaces, and the pruning-based algorithms beat the exhaustive one by
// orders of magnitude when the overlap is small.
func Example_overlap() {
	buildShifted := func(seed int64, n int, shift float64) (*cpq.Index, error) {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]cpq.Point, n)
		for i := range pts {
			pts[i] = cpq.Point{X: shift + rng.Float64(), Y: rng.Float64()}
		}
		// Zero buffer pages: every page read is a disk access, the
		// paper's B=0 configuration.
		return cpq.BuildIndex(pts, cpq.WithBufferPages(0))
	}

	const n = 2000
	left, err := buildShifted(1, n, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer left.Close()

	fmt.Printf("1-CPQ disk accesses, %d vs %d uniform points, B=0\n\n", n, n)
	fmt.Printf("%8s %10s %10s %10s %12s\n", "overlap", "EXH", "STD", "HEAP", "CP distance")
	for _, overlap := range []float64{0, 0.05, 0.25, 0.5, 1.0} {
		right, err := buildShifted(2, n, 1-overlap)
		if err != nil {
			log.Fatal(err)
		}
		row := fmt.Sprintf("%7.0f%%", overlap*100)
		var dist float64
		for _, alg := range []cpq.Algorithm{
			cpq.ExhaustiveAlgorithm, cpq.SortedDistancesAlgorithm, cpq.HeapAlgorithm,
		} {
			// One worker: the paper's sequential algorithms, whose disk
			// accesses repeat exactly.
			pair, stats, err := cpq.ClosestPair(left, right,
				cpq.WithAlgorithm(alg), cpq.WithParallelism(1))
			if err != nil {
				log.Fatal(err)
			}
			row += fmt.Sprintf(" %10d", stats.Accesses())
			dist = pair.Dist
		}
		fmt.Printf("%s %12.6f\n", row, dist)
		right.Close()
	}
	fmt.Println("\nCost explodes with overlap, while the pruning algorithms")
	fmt.Println("dominate EXH on disjoint workspaces: the paper's guideline")
	fmt.Println("for query optimizers.")
	// Output:
	// 1-CPQ disk accesses, 2000 vs 2000 uniform points, B=0
	//
	//  overlap        EXH        STD       HEAP  CP distance
	//       0%         96         28         22     0.006609
	//       5%        114         48         48     0.002715
	//      25%        266        206        204     0.000734
	//      50%        464        412        412     0.000080
	//     100%        810        796        792     0.000346
	//
	// Cost explodes with overlap, while the pruning algorithms
	// dominate EXH on disjoint workspaces: the paper's guideline
	// for query optimizers.
}

// Example_allnearest runs the semi-CPQ variant (paper Section 6) on a
// matching problem: assign every ambulance station its nearest hospital,
// and audit the worst-served stations. The hospital index is persisted to
// disk and reopened.
func Example_allnearest() {
	rng := rand.New(rand.NewSource(112))

	// Hospitals: a few dozen, clustered near city centers.
	centers := []cpq.Point{{X: 0.3, Y: 0.3}, {X: 0.75, Y: 0.6}, {X: 0.5, Y: 0.85}}
	var hospitals []cpq.Point
	for i := 0; i < 40; i++ {
		c := centers[rng.Intn(len(centers))]
		hospitals = append(hospitals, cpq.Point{
			X: c.X + rng.NormFloat64()*0.08,
			Y: c.Y + rng.NormFloat64()*0.08,
		})
	}
	// Ambulance stations: spread across the whole region.
	var stations []cpq.Point
	for i := 0; i < 500; i++ {
		stations = append(stations, cpq.Point{X: rng.Float64(), Y: rng.Float64()})
	}

	// Persist the hospital index to disk and reopen it, as a long-lived
	// service would.
	dir, err := os.MkdirTemp("", "cpq-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "hospitals.idx")

	h, err := cpq.BuildIndex(hospitals, cpq.WithPath(path))
	if err != nil {
		log.Fatal(err)
	}
	if err := h.Close(); err != nil {
		log.Fatal(err)
	}
	h, err = cpq.OpenIndex(path)
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()
	fmt.Printf("reopened hospital index: %d hospitals, height %d\n\n", h.Len(), h.Height())

	s, err := cpq.BuildIndex(stations)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Semi-CPQ: every station gets its nearest hospital, results sorted by
	// ascending distance — so the tail is the underserved stations.
	assign, stats, err := cpq.SemiClosestPairs(s, h)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assigned %d stations to hospitals (%d disk accesses)\n",
		len(assign), stats.Accesses())

	fmt.Println("\nbest-served stations:")
	for _, p := range assign[:3] {
		fmt.Printf("  station (%.3f, %.3f) → hospital (%.3f, %.3f), dist %.4f\n",
			p.P.X, p.P.Y, p.Q.X, p.Q.Y, p.Dist)
	}
	fmt.Println("worst-served stations (candidates for a new hospital):")
	for _, p := range assign[len(assign)-3:] {
		fmt.Printf("  station (%.3f, %.3f) → hospital (%.3f, %.3f), dist %.4f\n",
			p.P.X, p.P.Y, p.Q.X, p.Q.Y, p.Dist)
	}

	// Load statistics: the hospital serving the most stations, the lowest
	// ref among equals.
	load := make([]int, len(hospitals))
	for _, p := range assign {
		load[p.RefQ]++
	}
	busiest := 0
	for ref, n := range load {
		if n > load[busiest] {
			busiest = ref
		}
	}
	fmt.Printf("\nbusiest hospital: #%d at (%.3f, %.3f) serving %d stations\n",
		busiest, hospitals[busiest].X, hospitals[busiest].Y, load[busiest])
	// Output:
	// reopened hospital index: 40 hospitals, height 2
	//
	// assigned 500 stations to hospitals (3 disk accesses)
	//
	// best-served stations:
	//   station (0.444, 0.249) → hospital (0.444, 0.251), dist 0.0019
	//   station (0.429, 0.193) → hospital (0.430, 0.191), dist 0.0026
	//   station (0.133, 0.314) → hospital (0.137, 0.311), dist 0.0051
	// worst-served stations (candidates for a new hospital):
	//   station (0.938, 0.038) → hospital (0.750, 0.499), dist 0.4980
	//   station (0.909, 0.006) → hospital (0.430, 0.191), dist 0.5139
	//   station (0.993, 0.018) → hospital (0.750, 0.499), dist 0.5391
	//
	// busiest hospital: #13 at (0.750, 0.499) serving 76 stations
}
