package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rtree"
	"repro/internal/sortx"
	"repro/internal/storage"
)

// runSorts is the ablation behind footnote 2: run STD's full query with
// each of the six sorting methods and report accesses (identical by
// construction — the sort affects CPU only) and wall time.
func runSorts(l *Lab, w io.Writer) error {
	ta, tb, err := l.Pair(realSpec(), uniformSpec(40000, 40000), 0.5)
	if err != nil {
		return err
	}
	t := newTable(
		"Footnote 2: STD with each sorting method (1-CPQ, R/40K, overlap 50%, B=0)",
		"method", "accesses", "wall time")
	for _, m := range sortx.Methods() {
		opts := core.DefaultOptions(core.SortedDistances)
		opts.Sort = m
		start := time.Now()
		stats, err := l.RunCore(ta, tb, 1, opts, 0)
		if err != nil {
			return err
		}
		t.addRow(m.String(), fmt.Sprintf("%d", stats.Accesses()),
			time.Since(start).Round(time.Microsecond).String())
	}
	return t.write(w)
}

// runKPrune is the K-pruning ablation (Section 3.8): the reconstructed
// MAXMAXDIST prefix rule against the simple K-heap-top rule for SIM, STD
// and HEAP across K, on overlapping workspaces where pruning matters most.
func runKPrune(l *Lab, w io.Writer) error {
	ta, tb, err := l.Pair(realSpec(), uniformControl(), 1.0)
	if err != nil {
		return err
	}
	t := newTable(
		"Ablation: K-CPQ pruning bound, disk accesses (R/uniform, overlap 100%, B=0)",
		"K", "SIM:maxmax", "SIM:heap-top", "STD:maxmax", "STD:heap-top", "HEAP:maxmax", "HEAP:heap-top")
	for _, k := range []int{10, 100, 1000, 10000} {
		cells := []string{fmt.Sprintf("%d", k)}
		for _, alg := range []core.Algorithm{core.Simple, core.SortedDistances, core.Heap} {
			for _, rule := range []core.KPruning{core.KPruneMaxMax, core.KPruneHeapTop} {
				opts := core.DefaultOptions(alg)
				opts.KPrune = rule
				stats, err := l.RunCore(ta, tb, k, opts, 0)
				if err != nil {
					return err
				}
				cells = append(cells, fmt.Sprintf("%d", stats.Accesses()))
			}
		}
		t.addRow(cells...)
	}
	return t.write(w)
}

// runBuild is the build-path ablation: the same workload indexed by
// repeated R* insertion versus STR bulk loading, comparing tree shape and
// 1-CPQ/K-CPQ cost. Packed trees have less node overlap, which shows up
// directly in join cost.
func runBuild(l *Lab, w io.Writer) error {
	cfg := l.Config
	if cfg.PageSize == 0 {
		cfg = rtree.DefaultConfig()
	}
	n := l.ScaledN(40000)
	makeTree := func(seed int64, shift float64, bulk bool, fill float64) (*rtree.Tree, error) {
		pts := dataset.Uniform(seed, n)
		pool := storage.NewBufferPool(storage.NewMemFile(cfg.PageSize), 512)
		tr, err := rtree.New(pool, cfg)
		if err != nil {
			return nil, err
		}
		if bulk {
			items := make([]rtree.Item, len(pts))
			for i, p := range pts {
				items[i] = rtree.Item{Rect: p.Add(shift, 0).Rect(), Ref: int64(i)}
			}
			if err := tr.BulkLoad(items, fill); err != nil {
				return nil, err
			}
			return tr, nil
		}
		for i, p := range pts {
			if err := tr.InsertPoint(p.Add(shift, 0), int64(i)); err != nil {
				return nil, err
			}
		}
		return tr, nil
	}

	t := newTable(
		fmt.Sprintf("Ablation: insertion-built vs STR bulk-loaded trees (uniform %d/%d, overlap 100%%, B=0)", n, n),
		"build", "pages/tree", "height", "1-CP HEAP", "K=1000 HEAP")
	for _, row := range []struct {
		label string
		bulk  bool
		fill  float64
	}{
		{"insert (R*)", false, 0},
		{"bulk (STR 0.7)", true, 0.7},
		{"bulk (STR 1.0)", true, 1.0},
	} {
		ta, err := makeTree(91, 0, row.bulk, row.fill)
		if err != nil {
			return err
		}
		tb, err := makeTree(92, 0, row.bulk, row.fill)
		if err != nil {
			return err
		}
		label := row.label
		one, err := l.RunCore(ta, tb, 1, core.DefaultOptions(core.Heap), 0)
		if err != nil {
			return err
		}
		kk, err := l.RunCore(ta, tb, 1000, core.DefaultOptions(core.Heap), 0)
		if err != nil {
			return err
		}
		t.addRow(label,
			fmt.Sprintf("%d", ta.Pool().File().NumPages()),
			fmt.Sprintf("%d", ta.Height()),
			fmt.Sprintf("%d", one.Accesses()),
			fmt.Sprintf("%d", kk.Accesses()))
	}
	return t.write(w)
}

// runShape reports the physical shape of every data set used in the study
// (Section 4 quotes heights h=4 for 20K-60K and h=5 for 80K at M=21).
func runShape(l *Lab, w io.Writer) error {
	t := newTable(
		"Tree shapes (page size 1KB, M=21, m=7; insertion-built)",
		"data", "points", "height", "nodes/level (leaf..root)", "pages")
	specs := []struct {
		label string
		spec  DataSpec
	}{
		{"U20K", uniformSpec(20000, 20000)},
		{"U40K", uniformSpec(40000, 40000)},
		{"U60K", uniformSpec(60000, 60000)},
		{"U80K", uniformSpec(80000, 80000)},
		{"U62536", uniformControl()},
		{"R (real substitute)", realSpec()},
	}
	for _, s := range specs {
		tr, err := l.Tree(s.spec)
		if err != nil {
			return err
		}
		counts, err := tr.NodeCount()
		if err != nil {
			return err
		}
		t.addRow(s.label,
			fmt.Sprintf("%d", tr.Len()),
			fmt.Sprintf("%d", tr.Height()),
			fmt.Sprintf("%v", counts),
			fmt.Sprintf("%d", tr.Pool().File().NumPages()))
	}
	return t.write(w)
}
