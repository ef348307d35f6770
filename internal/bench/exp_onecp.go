package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
)

// runFig2 reproduces Figure 2: the cost of tie strategies T1-T5 relative
// to T1 for the STD (a) and HEAP (b) algorithms on 60K/60K random data
// sets with varying overlap, zero buffer.
func runFig2(l *Lab, w io.Writer) error {
	left := uniformSpec(60000, 60001)
	right := uniformSpec(60000, 60002)
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		sub := "a"
		if alg == core.Heap {
			sub = "b"
		}
		t := newTable(
			fmt.Sprintf("Figure 2.%s: tie strategies in %s, 1-CPQ, 60K/60K uniform, B=0 (relative cost, T1=100%%)", sub, alg),
			"overlap", "T1", "T2", "T3", "T4", "T5")
		for _, overlap := range dataset.Overlaps() {
			ta, tb, err := l.Pair(left, right, overlap)
			if err != nil {
				return err
			}
			var base int64
			cells := []string{overlapLabel(overlap)}
			for _, tie := range core.TieStrategies() {
				opts := core.DefaultOptions(alg)
				opts.Tie = tie
				stats, err := l.RunCore(ta, tb, 1, opts, 0)
				if err != nil {
					return err
				}
				if tie == core.Tie1 {
					base = stats.Accesses()
				}
				cells = append(cells, pct(stats.Accesses(), base))
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// runFig3 reproduces Figure 3: fix-at-leaves vs fix-at-root for trees of
// different heights. The taller tree holds 80K random points (height 5 in
// the paper's setup), the shorter one 20K-60K (height 4); overlap 0%, 50%
// and 100%; zero buffer. Disk accesses (the paper plots them log-scale).
func runFig3(l *Lab, w io.Writer) error {
	tall := uniformSpec(80000, 80000)
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		sub := "a"
		if alg == core.Heap {
			sub = "b"
		}
		t := newTable(
			fmt.Sprintf("Figure 3.%s: height treatment in %s, 1-CPQ, B=0 (disk accesses)", sub, alg),
			"data", "leaves-0%", "root-0%", "leaves-50%", "root-50%", "leaves-100%", "root-100%")
		for _, n := range []int{20000, 40000, 60000} {
			short := uniformSpec(n, int64(n))
			cells := []string{fmt.Sprintf("%dK/80K", n/1000)}
			for _, overlap := range []float64{0, 0.5, 1.0} {
				ta, tb, err := l.Pair(short, tall, overlap)
				if err != nil {
					return err
				}
				for _, hs := range []core.HeightStrategy{core.FixAtLeaves, core.FixAtRoot} {
					opts := core.DefaultOptions(alg)
					opts.Height = hs
					stats, err := l.RunCore(ta, tb, 1, opts, 0)
					if err != nil {
						return err
					}
					cells = append(cells, fmt.Sprintf("%d", stats.Accesses()))
				}
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// fourAlgorithms is the EXH/SIM/STD/HEAP comparison set (the Naive
// algorithm is excluded from the experiments, as in the paper).
var fourAlgorithms = []core.Algorithm{
	core.Exhaustive, core.Simple, core.SortedDistances, core.Heap,
}

// runFig4 reproduces Figure 4: disk accesses of the four 1-CP algorithms,
// real data set vs random sets of varying cardinality, for disjoint (a)
// and fully overlapping (b) workspaces; zero buffer.
func runFig4(l *Lab, w io.Writer) error {
	for _, overlap := range []float64{0, 1.0} {
		sub := "a"
		if overlap == 1.0 {
			sub = "b"
		}
		t := newTable(
			fmt.Sprintf("Figure 4.%s: 1-CPQ disk accesses, real vs random, overlap %s, B=0", sub, overlapLabel(overlap)),
			"data", "EXH", "SIM", "STD", "HEAP")
		for _, n := range []int{20000, 40000, 60000, 80000} {
			ta, tb, err := l.Pair(realSpec(), uniformSpec(n, int64(n)), overlap)
			if err != nil {
				return err
			}
			cells := []string{fmt.Sprintf("R/%dK", n/1000)}
			for _, alg := range fourAlgorithms {
				stats, err := l.RunCore(ta, tb, 1, core.DefaultOptions(alg), 0)
				if err != nil {
					return err
				}
				cells = append(cells, fmt.Sprintf("%d", stats.Accesses()))
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// runFig5 reproduces Figure 5: the relative cost of SIM, STD and HEAP with
// respect to EXH while the portion of overlap grows from 0% to 100%; real
// data vs 40K and 80K random sets, zero buffer.
func runFig5(l *Lab, w io.Writer) error {
	t := newTable(
		"Figure 5: 1-CPQ cost relative to EXH vs portion of overlap (R/40K and R/80K, B=0)",
		"overlap",
		"40K:SIM", "40K:STD", "40K:HEAP",
		"80K:SIM", "80K:STD", "80K:HEAP")
	for _, overlap := range dataset.OverlapSweep() {
		cells := []string{overlapLabel(overlap)}
		for _, n := range []int{40000, 80000} {
			ta, tb, err := l.Pair(realSpec(), uniformSpec(n, int64(n)), overlap)
			if err != nil {
				return err
			}
			exh, err := l.RunCore(ta, tb, 1, core.DefaultOptions(core.Exhaustive), 0)
			if err != nil {
				return err
			}
			for _, alg := range []core.Algorithm{core.Simple, core.SortedDistances, core.Heap} {
				stats, err := l.RunCore(ta, tb, 1, core.DefaultOptions(alg), 0)
				if err != nil {
					return err
				}
				cells = append(cells, pct(stats.Accesses(), exh.Accesses()))
			}
		}
		t.addRow(cells...)
	}
	return t.write(w)
}

// runFig6 reproduces Figure 6: the four 1-CP algorithms under an LRU
// buffer of B = 0..256 pages (B/2 per tree), real vs 40K and 80K random
// data, disjoint (a) and fully overlapping (b) workspaces.
func runFig6(l *Lab, w io.Writer) error {
	for _, overlap := range []float64{0, 1.0} {
		sub := "a"
		if overlap == 1.0 {
			sub = "b"
		}
		t := newTable(
			fmt.Sprintf("Figure 6.%s: 1-CPQ disk accesses vs LRU buffer size, overlap %s", sub, overlapLabel(overlap)),
			"B",
			"40K:EXH", "40K:SIM", "40K:STD", "40K:HEAP",
			"80K:EXH", "80K:SIM", "80K:STD", "80K:HEAP")
		for _, b := range bufferSchedule {
			cells := []string{fmt.Sprintf("%d", b)}
			for _, n := range []int{40000, 80000} {
				ta, tb, err := l.Pair(realSpec(), uniformSpec(n, int64(n)), overlap)
				if err != nil {
					return err
				}
				for _, alg := range fourAlgorithms {
					stats, err := l.RunCore(ta, tb, 1, core.DefaultOptions(alg), b)
					if err != nil {
						return err
					}
					cells = append(cells, fmt.Sprintf("%d", stats.Accesses()))
				}
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}
