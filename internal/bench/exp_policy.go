package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// runPolicies is the replacement-policy ablation: the paper follows
// Leutenegger & Lopez in using LRU buffers; this experiment swaps in FIFO
// and CLOCK to measure how much the policy choice matters for the
// depth-first (STD) and best-first (HEAP) access patterns.
func runPolicies(l *Lab, w io.Writer) error {
	cfg := l.Config
	if cfg.PageSize == 0 {
		cfg = rtree.DefaultConfig()
	}
	n := l.ScaledN(40000)
	build := func(seed int64, shift float64, policy storage.Policy) (*rtree.Tree, error) {
		pool := storage.NewBufferPoolWithPolicy(storage.NewMemFile(cfg.PageSize), 512, policy)
		tr, err := rtree.New(pool, cfg)
		if err != nil {
			return nil, err
		}
		for i, p := range dataset.Uniform(seed, n) {
			if err := tr.InsertPoint(p.Add(shift, 0), int64(i)); err != nil {
				return nil, err
			}
		}
		return tr, nil
	}

	t := newTable(
		fmt.Sprintf("Ablation: buffer replacement policies (uniform %d/%d, overlap 100%%, K=100)", n, n),
		"B", "STD:LRU", "STD:FIFO", "STD:CLOCK", "HEAP:LRU", "HEAP:FIFO", "HEAP:CLOCK")
	type pair struct{ ta, tb *rtree.Tree }
	pairs := map[storage.Policy]pair{}
	for _, policy := range storage.Policies() {
		ta, err := build(81, 0, policy)
		if err != nil {
			return err
		}
		tb, err := build(82, 0, policy)
		if err != nil {
			return err
		}
		pairs[policy] = pair{ta, tb}
	}
	for _, b := range []int{16, 64, 256} {
		cells := []string{fmt.Sprintf("%d", b)}
		for _, alg := range []core.Algorithm{core.SortedDistances, core.Heap} {
			for _, policy := range storage.Policies() {
				pr := pairs[policy]
				stats, err := l.RunCore(pr.ta, pr.tb, 100, core.DefaultOptions(alg), b)
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
