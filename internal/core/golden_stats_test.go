package core

import (
	"fmt"
	"testing"

	"repro/internal/rtree"
)

// goldenTrees builds the three inputs of TestGoldenStats: an
// insertion-built pair of equal height, and a tall tree against a short
// one, the tall one insertion-built and then thinned by deletes (so its
// entry rectangles went through condensation and reinsertion, not just
// packing).
func goldenTrees(t *testing.T) (same [2]*rtree.Tree, diff [2]*rtree.Tree) {
	t.Helper()
	same[0] = buildTree(t, uniformPoints(9100, 800, 0), 256)
	same[1] = buildTree(t, uniformPoints(9200, 700, 0.4), 256)

	tallPts := uniformPoints(9300, 2500, 0)
	tall := buildTree(t, tallPts, 256)
	for i := 0; i < len(tallPts); i += 5 {
		if err := tall.DeletePoint(tallPts[i], int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tall.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	diff[0] = tall
	diff[1] = buildTree(t, uniformPoints(9400, 60, 0.2), 256)
	if same[0].Height() != same[1].Height() {
		t.Fatalf("same-height pair has heights %d and %d", same[0].Height(), same[1].Height())
	}
	if diff[0].Height() < diff[1].Height()+2 {
		t.Fatalf("different-height pair has heights %d and %d", diff[0].Height(), diff[1].Height())
	}
	return same, diff
}

// goldenStats was recorded on the commit before the heap element lost its
// two rectangles (ISSUE 18): every counter the paper reports, per
// algorithm, K and height treatment. The different-height rows are the
// ones that read the fixed side's MBR, which now comes from the node in
// hand instead of the queued pair; the tall tree there is insertion-built
// and thinned by deletes. Rows where the short tree is on the P side
// exercise the other fixed side.
var goldenStats = map[string]string{
	"same/NAIVE/k=1":                  "accesses=66002 (P=33001 Q=33001) nodePairs=33000 subPairs=32999 pruned=0 pointPairs=5665 maxQueue=0",
	"same/NAIVE/k=100":                "accesses=66002 (P=33001 Q=33001) nodePairs=33000 subPairs=32999 pruned=0 pointPairs=21838 maxQueue=0",
	"same/EXH/k=1":                    "accesses=514 (P=257 Q=257) nodePairs=256 subPairs=1848 pruned=1593 pointPairs=306 maxQueue=0",
	"same/EXH/k=100":                  "accesses=1096 (P=548 Q=548) nodePairs=547 subPairs=2536 pruned=1990 pointPairs=3716 maxQueue=0",
	"same/SIM/k=1":                    "accesses=486 (P=243 Q=243) nodePairs=242 subPairs=1828 pruned=1587 pointPairs=98 maxQueue=0",
	"same/SIM/k=100":                  "accesses=1086 (P=543 Q=543) nodePairs=542 subPairs=2536 pruned=1995 pointPairs=3630 maxQueue=0",
	"same/STD/k=1":                    "accesses=454 (P=227 Q=227) nodePairs=226 subPairs=1633 pruned=1408 pointPairs=55 maxQueue=0",
	"same/STD/k=100":                  "accesses=768 (P=384 Q=384) nodePairs=383 subPairs=2189 pruned=1807 pointPairs=1523 maxQueue=0",
	"same/HEAP/k=1":                   "accesses=452 (P=226 Q=226) nodePairs=225 subPairs=1633 pruned=1189 pointPairs=146 maxQueue=352",
	"same/HEAP/k=100":                 "accesses=602 (P=301 Q=301) nodePairs=300 subPairs=1909 pruned=371 pointPairs=1326 maxQueue=1436",
	"tallP/fix-at-root/NAIVE/k=1":     "accesses=15554 (P=7777 Q=7777) nodePairs=7776 subPairs=7775 pruned=0 pointPairs=1037 maxQueue=0",
	"tallP/fix-at-root/NAIVE/k=100":   "accesses=15554 (P=7777 Q=7777) nodePairs=7776 subPairs=7775 pruned=0 pointPairs=7888 maxQueue=0",
	"tallP/fix-at-root/EXH/k=1":       "accesses=722 (P=361 Q=361) nodePairs=360 subPairs=2050 pruned=1691 pointPairs=272 maxQueue=0",
	"tallP/fix-at-root/EXH/k=100":     "accesses=1210 (P=605 Q=605) nodePairs=604 subPairs=2613 pruned=2010 pointPairs=2442 maxQueue=0",
	"tallP/fix-at-root/SIM/k=1":       "accesses=696 (P=348 Q=348) nodePairs=347 subPairs=2030 pruned=1684 pointPairs=187 maxQueue=0",
	"tallP/fix-at-root/SIM/k=100":     "accesses=1210 (P=605 Q=605) nodePairs=604 subPairs=2613 pruned=2010 pointPairs=2442 maxQueue=0",
	"tallP/fix-at-root/STD/k=1":       "accesses=670 (P=335 Q=335) nodePairs=334 subPairs=1956 pruned=1623 pointPairs=169 maxQueue=0",
	"tallP/fix-at-root/STD/k=100":     "accesses=1024 (P=512 Q=512) nodePairs=511 subPairs=2413 pruned=1903 pointPairs=1714 maxQueue=0",
	"tallP/fix-at-root/HEAP/k=1":      "accesses=664 (P=332 Q=332) nodePairs=331 subPairs=1956 pruned=1424 pointPairs=192 maxQueue=391",
	"tallP/fix-at-root/HEAP/k=100":    "accesses=804 (P=402 Q=402) nodePairs=401 subPairs=2108 pruned=244 pointPairs=1448 maxQueue=1714",
	"tallP/fix-at-leaves/NAIVE/k=1":   "accesses=19130 (P=9565 Q=9565) nodePairs=9564 subPairs=9563 pruned=0 pointPairs=4112 maxQueue=0",
	"tallP/fix-at-leaves/NAIVE/k=100": "accesses=19130 (P=9565 Q=9565) nodePairs=9564 subPairs=9563 pruned=0 pointPairs=10976 maxQueue=0",
	"tallP/fix-at-leaves/EXH/k=1":     "accesses=850 (P=425 Q=425) nodePairs=424 subPairs=836 pruned=413 pointPairs=714 maxQueue=0",
	"tallP/fix-at-leaves/EXH/k=100":   "accesses=1636 (P=818 Q=818) nodePairs=817 subPairs=1293 pruned=477 pointPairs=4545 maxQueue=0",
	"tallP/fix-at-leaves/SIM/k=1":     "accesses=730 (P=365 Q=365) nodePairs=364 subPairs=729 pruned=366 pointPairs=236 maxQueue=0",
	"tallP/fix-at-leaves/SIM/k=100":   "accesses=1562 (P=781 Q=781) nodePairs=780 subPairs=1260 pruned=481 pointPairs=4043 maxQueue=0",
	"tallP/fix-at-leaves/STD/k=1":     "accesses=676 (P=338 Q=338) nodePairs=337 subPairs=681 pruned=345 pointPairs=165 maxQueue=0",
	"tallP/fix-at-leaves/STD/k=100":   "accesses=1024 (P=512 Q=512) nodePairs=511 subPairs=888 pruned=378 pointPairs=1525 maxQueue=0",
	"tallP/fix-at-leaves/HEAP/k=1":    "accesses=662 (P=331 Q=331) nodePairs=330 subPairs=671 pruned=260 pointPairs=238 maxQueue=132",
	"tallP/fix-at-leaves/HEAP/k=100":  "accesses=842 (P=421 Q=421) nodePairs=420 subPairs=794 pruned=203 pointPairs=1426 maxQueue=249",
	"tallQ/fix-at-root/NAIVE/k=1":     "accesses=15554 (P=7777 Q=7777) nodePairs=7776 subPairs=7775 pruned=0 pointPairs=1594 maxQueue=0",
	"tallQ/fix-at-root/NAIVE/k=100":   "accesses=15554 (P=7777 Q=7777) nodePairs=7776 subPairs=7775 pruned=0 pointPairs=8449 maxQueue=0",
	"tallQ/fix-at-root/EXH/k=1":       "accesses=746 (P=373 Q=373) nodePairs=372 subPairs=2086 pruned=1715 pointPairs=410 maxQueue=0",
	"tallQ/fix-at-root/EXH/k=100":     "accesses=1238 (P=619 Q=619) nodePairs=618 subPairs=2650 pruned=2033 pointPairs=2704 maxQueue=0",
	"tallQ/fix-at-root/SIM/k=1":       "accesses=696 (P=348 Q=348) nodePairs=347 subPairs=2030 pruned=1684 pointPairs=187 maxQueue=0",
	"tallQ/fix-at-root/SIM/k=100":     "accesses=1238 (P=619 Q=619) nodePairs=618 subPairs=2650 pruned=2033 pointPairs=2704 maxQueue=0",
	"tallQ/fix-at-root/STD/k=1":       "accesses=670 (P=335 Q=335) nodePairs=334 subPairs=1956 pruned=1623 pointPairs=169 maxQueue=0",
	"tallQ/fix-at-root/STD/k=100":     "accesses=1024 (P=512 Q=512) nodePairs=511 subPairs=2413 pruned=1903 pointPairs=1714 maxQueue=0",
	"tallQ/fix-at-root/HEAP/k=1":      "accesses=664 (P=332 Q=332) nodePairs=331 subPairs=1956 pruned=1423 pointPairs=196 maxQueue=392",
	"tallQ/fix-at-root/HEAP/k=100":    "accesses=804 (P=402 Q=402) nodePairs=401 subPairs=2108 pruned=244 pointPairs=1436 maxQueue=1714",
	"tallQ/fix-at-leaves/NAIVE/k=1":   "accesses=19130 (P=9565 Q=9565) nodePairs=9564 subPairs=9563 pruned=0 pointPairs=2754 maxQueue=0",
	"tallQ/fix-at-leaves/NAIVE/k=100": "accesses=19130 (P=9565 Q=9565) nodePairs=9564 subPairs=9563 pruned=0 pointPairs=9768 maxQueue=0",
	"tallQ/fix-at-leaves/EXH/k=1":     "accesses=822 (P=411 Q=411) nodePairs=410 subPairs=795 pruned=386 pointPairs=492 maxQueue=0",
	"tallQ/fix-at-leaves/EXH/k=100":   "accesses=1398 (P=699 Q=699) nodePairs=698 subPairs=1146 pruned=449 pointPairs=3368 maxQueue=0",
	"tallQ/fix-at-leaves/SIM/k=1":     "accesses=742 (P=371 Q=371) nodePairs=370 subPairs=732 pruned=363 pointPairs=258 maxQueue=0",
	"tallQ/fix-at-leaves/SIM/k=100":   "accesses=1324 (P=662 Q=662) nodePairs=661 subPairs=1113 pruned=453 pointPairs=2865 maxQueue=0",
	"tallQ/fix-at-leaves/STD/k=1":     "accesses=676 (P=338 Q=338) nodePairs=337 subPairs=681 pruned=345 pointPairs=165 maxQueue=0",
	"tallQ/fix-at-leaves/STD/k=100":   "accesses=1024 (P=512 Q=512) nodePairs=511 subPairs=888 pruned=378 pointPairs=1525 maxQueue=0",
	"tallQ/fix-at-leaves/HEAP/k=1":    "accesses=662 (P=331 Q=331) nodePairs=330 subPairs=671 pruned=260 pointPairs=204 maxQueue=131",
	"tallQ/fix-at-leaves/HEAP/k=100":  "accesses=842 (P=421 Q=421) nodePairs=420 subPairs=794 pruned=204 pointPairs=1385 maxQueue=248",
}

// TestGoldenStats pins the full cost profile of the five algorithms: a
// change to the traversal that moves any paper counter — accesses per
// tree, node pairs, sub-pairs generated or pruned, point pairs, queue
// high-water mark — fails here by name.
func TestGoldenStats(t *testing.T) {
	same, diff := goldenTrees(t)
	type input struct {
		name   string
		ta, tb *rtree.Tree
		height HeightStrategy
	}
	inputs := []input{
		{"same", same[0], same[1], FixAtRoot},
		{"tallP/fix-at-root", diff[0], diff[1], FixAtRoot},
		{"tallP/fix-at-leaves", diff[0], diff[1], FixAtLeaves},
		{"tallQ/fix-at-root", diff[1], diff[0], FixAtRoot},
		{"tallQ/fix-at-leaves", diff[1], diff[0], FixAtLeaves},
	}
	for _, in := range inputs {
		for _, alg := range Algorithms() {
			for _, k := range []int{1, 100} {
				name := fmt.Sprintf("%s/%v/k=%d", in.name, alg, k)
				opts := DefaultOptions(alg)
				opts.Height = in.height
				_, stats, err := KClosestPairs(in.ta, in.tb, k, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := stats.String(), goldenStats[name]; got != want {
					t.Errorf("%s:\n got  %s\n want %s", name, got, want)
				}
			}
		}
	}
}
