// Package dataset generates the workloads of the paper's experimental
// study (Section 4): uniform ("random") point sets of 20K-80K points, a
// 62,536-point clustered set standing in for the Sequoia 2000 California
// sites (see DESIGN.md for the substitution rationale), and workspace
// placement that realizes an exact portion of overlap between the two data
// sets' workspaces.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geom"
)

// RealCardinality is the cardinality of the paper's real data set (the
// Sequoia California sites) and of its uniform control set.
const RealCardinality = 62536

// Uniform returns n points uniformly distributed in the unit workspace
// [0,1) x [0,1), deterministically from seed.
func Uniform(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// Clustered returns n points in the unit workspace arranged in Gaussian
// clusters with power-law populations strung along a diagonal band — a
// synthetic stand-in for the Sequoia California site data: strongly
// non-uniform, with dense urban-like cores and large empty regions, so
// that R*-tree node rectangles are frequently disjoint even when two such
// workspaces fully overlap (the property Section 4.3.2 attributes to the
// real data).
func Clustered(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	const clusters = 60
	type cluster struct {
		center geom.Point
		sigma  float64
		weight float64
	}
	cs := make([]cluster, clusters)
	var total float64
	for i := range cs {
		// Centers along a noisy diagonal band (California's population
		// spine runs roughly NW-SE); weights follow a power law so a few
		// clusters dominate, like metropolitan areas.
		t := rng.Float64()
		cs[i] = cluster{
			center: geom.Point{
				X: clamp01(t + rng.NormFloat64()*0.12),
				Y: clamp01(1 - t + rng.NormFloat64()*0.12),
			},
			sigma:  0.004 + rng.Float64()*0.05,
			weight: math.Pow(rng.Float64(), 3) + 0.02,
		}
		total += cs[i].weight
	}
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		// 5% background noise, 95% cluster members.
		if rng.Float64() < 0.05 {
			pts = append(pts, geom.Point{X: rng.Float64(), Y: rng.Float64()})
			continue
		}
		r := rng.Float64() * total
		var c cluster
		for i := range cs {
			if r < cs[i].weight {
				c = cs[i]
				break
			}
			r -= cs[i].weight
		}
		if c.sigma == 0 { // numeric fallthrough safety
			c = cs[len(cs)-1]
		}
		p := geom.Point{
			X: c.center.X + rng.NormFloat64()*c.sigma,
			Y: c.center.Y + rng.NormFloat64()*c.sigma,
		}
		if p.X < 0 || p.X >= 1 || p.Y < 0 || p.Y >= 1 {
			continue
		}
		pts = append(pts, p)
	}
	return pts
}

func clamp01(v float64) float64 {
	return math.Max(0.05, math.Min(0.95, v))
}

// Real returns the reproduction's stand-in for the paper's real data set:
// the clustered generator at the Sequoia cardinality, with a fixed seed so
// every experiment sees the same "real" data.
func Real() []geom.Point {
	return Clustered(62536, RealCardinality)
}

// PlaceWithOverlap translates a unit-workspace point set so that its
// workspace overlaps the unit workspace [0,1)^2 of the first set by the
// given portion (0 = adjacent/disjoint workspaces, 1 = fully overlapping),
// sliding along the x axis as in the paper's experiments. The portion is
// the fraction of each workspace's area shared with the other.
func PlaceWithOverlap(pts []geom.Point, portion float64) ([]geom.Point, error) {
	if !(portion >= 0 && portion <= 1) { // NaN fails here too
		return nil, fmt.Errorf("dataset: overlap portion %g out of [0, 1]", portion)
	}
	dx := 1 - portion
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Add(dx, 0)
	}
	return out, nil
}

// Overlaps returns the overlap portions the paper explores most often.
func Overlaps() []float64 {
	return []float64{0, 0.33, 0.5, 0.67, 1.0}
}

// OverlapSweep returns the fine-grained overlap schedule of the threshold
// experiments (Figures 5 and 8).
func OverlapSweep() []float64 {
	return []float64{0, 0.03, 0.06, 0.12, 0.25, 0.5, 1.0}
}
