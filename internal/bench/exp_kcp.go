package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/incremental"
)

// runFig7 reproduces Figure 7: the four K-CP algorithms with K from 1 to
// 100,000, real vs the 62,536-point uniform set, zero buffer, disjoint (a)
// and fully overlapping (b) workspaces.
func runFig7(l *Lab, w io.Writer) error {
	for _, overlap := range []float64{0, 1.0} {
		sub := "a"
		if overlap == 1.0 {
			sub = "b"
		}
		t := newTable(
			fmt.Sprintf("Figure 7.%s: K-CPQ disk accesses vs K (R/62536 uniform, overlap %s, B=0)", sub, overlapLabel(overlap)),
			"K", "EXH", "SIM", "STD", "HEAP")
		ta, tb, err := l.Pair(realSpec(), uniformControl(), overlap)
		if err != nil {
			return err
		}
		for _, k := range kSchedule {
			cells := []string{fmt.Sprintf("%d", k)}
			for _, alg := range fourAlgorithms {
				stats, err := l.RunCore(ta, tb, k, core.DefaultOptions(alg), 0)
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

// runFig8 reproduces Figure 8: the relative cost of STD (a) and HEAP (b)
// with respect to EXH across the (overlap, K) plane; real vs uniform data,
// zero buffer.
func runFig8(l *Lab, w io.Writer) error {
	type key struct {
		overlap float64
		k       int
	}
	costs := map[core.Algorithm]map[key]int64{
		core.Exhaustive:      {},
		core.SortedDistances: {},
		core.Heap:            {},
	}
	for _, overlap := range dataset.OverlapSweep() {
		ta, tb, err := l.Pair(realSpec(), uniformControl(), overlap)
		if err != nil {
			return err
		}
		for _, k := range kSchedule {
			for alg := range costs {
				stats, err := l.RunCore(ta, tb, k, core.DefaultOptions(alg), 0)
				if err != nil {
					return err
				}
				costs[alg][key{overlap, k}] = stats.Accesses()
			}
		}
	}
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		sub := "a"
		if alg == core.Heap {
			sub = "b"
		}
		header := []string{"overlap"}
		for _, k := range kSchedule {
			header = append(header, fmt.Sprintf("K=%d", k))
		}
		t := newTable(
			fmt.Sprintf("Figure 8.%s: %s cost relative to EXH vs overlap and K (R/uniform, B=0)", sub, alg),
			header...)
		for _, overlap := range dataset.OverlapSweep() {
			cells := []string{overlapLabel(overlap)}
			for _, k := range kSchedule {
				cells = append(cells, pct(costs[alg][key{overlap, k}],
					costs[core.Exhaustive][key{overlap, k}]))
			}
			t.addRow(cells...)
		}
		if err := t.write(w); err != nil {
			return err
		}
	}
	return nil
}

// runFig9 reproduces Figure 9: STD (a) and HEAP (b) disk accesses across
// the (buffer size, K) plane with disjoint workspaces; real vs uniform
// data (the paper plots this log-scale).
func runFig9(l *Lab, w io.Writer) error {
	ta, tb, err := l.Pair(realSpec(), uniformControl(), 0)
	if err != nil {
		return err
	}
	for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
		sub := "a"
		if alg == core.Heap {
			sub = "b"
		}
		header := []string{"B"}
		for _, k := range kSchedule {
			header = append(header, fmt.Sprintf("K=%d", k))
		}
		t := newTable(
			fmt.Sprintf("Figure 9.%s: %s disk accesses vs LRU buffer and K (overlap 0%%)", sub, alg),
			header...)
		for _, b := range bufferSchedule {
			cells := []string{fmt.Sprintf("%d", b)}
			for _, k := range kSchedule {
				stats, err := l.RunCore(ta, tb, k, core.DefaultOptions(alg), b)
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

// runFig10 reproduces Figure 10: the paper's STD and HEAP against the
// incremental EVN and SML of Hjaltason & Samet, across K, for the four
// combinations of buffer size (0, 128 pages) and overlap (0%, 100%).
func runFig10(l *Lab, w io.Writer) error {
	configs := []struct {
		sub     string
		buffer  int
		overlap float64
	}{
		{"a", 0, 0},
		{"b", 128, 0},
		{"c", 0, 1.0},
		{"d", 128, 1.0},
	}
	for _, cfg := range configs {
		ta, tb, err := l.Pair(realSpec(), uniformControl(), cfg.overlap)
		if err != nil {
			return err
		}
		t := newTable(
			fmt.Sprintf("Figure 10.%s: disk accesses vs K (buffer %d pages, overlap %s)",
				cfg.sub, cfg.buffer, overlapLabel(cfg.overlap)),
			"K", "STD", "HEAP", "EVN", "SML")
		for _, k := range kSchedule {
			cells := []string{fmt.Sprintf("%d", k)}
			for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
				stats, err := l.RunCore(ta, tb, k, core.DefaultOptions(alg), cfg.buffer)
				if err != nil {
					return err
				}
				cells = append(cells, fmt.Sprintf("%d", stats.Accesses()))
			}
			for _, trav := range []incremental.Traversal{incremental.Even, incremental.Simultaneous} {
				stats, err := l.RunIncremental(ta, tb, k,
					incremental.Options{Traversal: trav}, cfg.buffer)
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
