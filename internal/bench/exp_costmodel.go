package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/costmodel"
)

// runCostModel validates the analytical cost model of internal/costmodel
// (the paper's future-work item (b)) against measured HEAP cost on uniform
// workloads across the overlap and K axes.
func runCostModel(l *Lab, w io.Writer) error {
	t := newTable(
		"Cost model: predicted vs measured K-CPQ accesses (HEAP, uniform data, B=0)",
		"N/N", "overlap", "K", "predicted", "measured", "ratio")
	for _, cfg := range []struct {
		n       int
		overlap float64
		k       int
	}{
		{20000, 1.0, 1},
		{20000, 1.0, 100},
		{20000, 1.0, 10000},
		{20000, 0.5, 1},
		{20000, 0.5, 100},
		{20000, 0.25, 1},
		{40000, 1.0, 1},
		{40000, 0.5, 100},
		{40000, 0.12, 1},
		{60000, 1.0, 1000},
	} {
		n := l.ScaledN(cfg.n)
		ta, tb, err := l.Pair(
			DataSpec{Kind: UniformData, N: cfg.n, Seed: 71},
			DataSpec{Kind: UniformData, N: cfg.n, Seed: 72},
			cfg.overlap)
		if err != nil {
			return err
		}
		stats, err := l.RunCore(ta, tb, cfg.k, core.DefaultOptions(core.Heap), 0)
		if err != nil {
			return err
		}
		pred, err := costmodel.Predict(costmodel.Params{
			NA: n, NB: n, Overlap: cfg.overlap, K: cfg.k,
		})
		if err != nil {
			return err
		}
		t.addRow(
			fmt.Sprintf("%d/%d", n, n),
			overlapLabel(cfg.overlap),
			fmt.Sprintf("%d", cfg.k),
			fmt.Sprintf("%.0f", pred.Accesses),
			fmt.Sprintf("%d", stats.Accesses()),
			fmt.Sprintf("%.2f", pred.Accesses/float64(stats.Accesses())))
	}
	return t.write(w)
}
