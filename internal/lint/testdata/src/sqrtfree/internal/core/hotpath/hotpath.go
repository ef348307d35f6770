// Package hotpath is a lint fixture nested under an internal/core path so
// it falls inside the sqrtfree scope: roots in comparisons are flagged,
// allowlisted reporting functions and suppressed sites are not.
package hotpath

import "math"

// prune compares distances the wrong way: both roots are violations.
func prune(dSq, tSq float64) bool {
	return math.Sqrt(dSq) > math.Sqrt(tSq)
}

// KeyToDist is on the result-reporting allowlist.
func KeyToDist(dSq float64) float64 { return math.Sqrt(dSq) }

// legacy keeps a deliberate root behind a suppression.
func legacy(dSq float64) float64 {
	//lint:ignore sqrtfree reporting helper kept for a comparison test
	return math.Sqrt(dSq)
}

// legacyWrapped and pruneWrapped hold the same statement wrapped across
// two lines, the root on the second: the directive above the first line
// of legacyWrapped's copy suppresses it, pruneWrapped's copy surfaces.
func legacyWrapped(aSq, bSq float64) float64 {
	//lint:ignore sqrtfree reporting helper kept for a comparison test
	d := max(aSq,
		math.Sqrt(bSq))
	return d
}

func pruneWrapped(aSq, bSq float64) float64 {
	d := max(aSq,
		math.Sqrt(bSq))
	return d
}
