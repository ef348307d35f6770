package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one regenerable figure (or ablation) of the study: one
// "=== name:" section of results_full.txt.
type Experiment struct {
	// Name is the CLI identifier, e.g. "fig4".
	Name string
	// Title describes the experiment.
	Title string
	// Run executes the experiment on the lab and writes its tables.
	Run func(l *Lab, w io.Writer) error
}

var registry = []Experiment{
	{"fig2", "Tie strategies T1-T5 in STD and HEAP (1-CPQ, 60K/60K uniform)", runFig2},
	{"fig3", "fix-at-leaves vs fix-at-root for different tree heights (1-CPQ)", runFig3},
	{"fig4", "The four 1-CP algorithms: real vs random data, 0% and 100% overlap", runFig4},
	{"fig5", "Overlap threshold for 1-CPQ: SIM/STD/HEAP relative to EXH", runFig5},
	{"fig6", "LRU buffer effect on the four 1-CP algorithms", runFig6},
	{"fig7", "The four K-CP algorithms for varying K (real vs uniform)", runFig7},
	{"fig8", "Overlap threshold for varying K: STD and HEAP relative to EXH", runFig8},
	{"fig9", "LRU buffer effect for varying K: STD and HEAP", runFig9},
	{"fig10", "Incremental (EVN, SML) vs non-incremental (STD, HEAP) for varying K", runFig10},
	{"sorts", "Footnote 2 ablation: sorting methods inside STD", runSorts},
	{"kprune", "Ablation: K-CPQ pruning bound (MAXMAXDIST rule vs K-heap top)", runKPrune},
	{"build", "Ablation: insertion-built vs STR bulk-loaded trees", runBuild},
	{"shape", "Tree shapes of the experimental data sets (heights, node counts)", runShape},
	{"semi", "Semi-CPQ: per-point NN vs batched leaf traversal", runSemi},
}

// Experiments lists every registered experiment in presentation order.
func Experiments() []Experiment {
	out := append([]Experiment(nil), registry...)
	return out
}

// ByName finds an experiment by CLI name.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns the sorted experiment names for usage messages.
func Names() []string {
	var names []string
	for _, e := range registry {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// Shared workload vocabulary ------------------------------------------------

// kSchedule is the K axis of Figures 7-10 (1 up to 100,000).
var kSchedule = []int{1, 10, 100, 1000, 10000, 100000}

// bufferSchedule is the LRU buffer axis of Figures 6 and 9 (total pages,
// split B/2 per tree).
var bufferSchedule = []int{0, 4, 16, 64, 256}

func uniformSpec(n int, seed int64) DataSpec {
	return DataSpec{Kind: UniformData, N: n, Seed: seed}
}

func realSpec() DataSpec { return DataSpec{Kind: RealData} }

// uniformControl is the 62,536-point uniform set joined with the real one
// in Sections 4 and 5.
func uniformControl() DataSpec { return uniformSpec(62536, 62536) }

func overlapLabel(o float64) string { return fmt.Sprintf("%.0f%%", o*100) }
