package explain

import (
	"fmt"
	"strings"
	"time"
)

// Render draws the snapshot as a text tree, the `cpqquery -explain`
// output: the plan first (what was decided and why), then the execution
// (where the time and the work went).
func (e *Explain) Render() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "QUERY %s\n", e.Plan.Label)

	// Plan.
	b.WriteString("├─ plan\n")
	writeBranch(&b, "│  ", []string{
		fmt.Sprintf("algorithm: %s  k=%d  workers=%d", e.Plan.Algorithm, e.Plan.K, e.Plan.Workers),
	})

	// Execution.
	fmt.Fprintf(&b, "└─ execution (%s)\n", fmtDur(e.Exec.DurationNS))
	var lines []string
	if len(e.Exec.Phases) > 0 {
		parts := make([]string, len(e.Exec.Phases))
		for i, p := range e.Exec.Phases {
			parts[i] = fmt.Sprintf("%s %s", p.Name, fmtDur(p.DurationNS))
		}
		lines = append(lines, "phases: "+strings.Join(parts, " · "))
	}
	if len(e.Exec.Bounds) > 0 {
		lines = append(lines, fmt.Sprintf("bound trajectory: %d tightenings, %s → %s",
			len(e.Exec.Bounds), fmtKey(e.Exec.Bounds[0].Old), fmtKey(e.Exec.Bounds[len(e.Exec.Bounds)-1].New)))
		for _, s := range trajectoryHighlights(e.Exec.Bounds) {
			lines = append(lines, fmt.Sprintf("  @%s %s → %s (%s)",
				fmtDur(s.Nanos), fmtKey(s.Old), fmtKey(s.New), s.Source))
		}
	}
	lines = append(lines, fmt.Sprintf("stats: %d accesses, %d node pairs, %d point pairs, cache %d/%d",
		e.Exec.Stats.Accesses, e.Exec.Stats.NodePairsProcessed, e.Exec.Stats.PointPairsCompared,
		e.Exec.Stats.NodeCacheHits, e.Exec.Stats.NodeCacheHits+e.Exec.Stats.NodeCacheMisses))
	lines = append(lines, fmt.Sprintf("results: %d pairs, k-th distance %.6g", e.Exec.Results, e.Exec.KthDistance))
	writeBranch(&b, "   ", lines)
	return b.String()
}

// trajectoryHighlights keeps the trajectory readable: all steps when
// short, else first/last few.
func trajectoryHighlights(steps []BoundStep) []BoundStep {
	const max = 8
	if len(steps) <= max {
		return steps
	}
	out := append([]BoundStep(nil), steps[:max/2]...)
	return append(out, steps[len(steps)-max/2:]...)
}

// writeBranch writes lines as tree leaves under the current branch.
func writeBranch(b *strings.Builder, prefix string, lines []string) {
	for i, l := range lines {
		join := "├─ "
		if i == len(lines)-1 {
			join = "└─ "
		}
		b.WriteString(prefix + join + l + "\n")
	}
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// fmtKey renders a metric key, showing the Unbounded sentinel as ∞.
func fmtKey(v float64) string {
	if v == Unbounded {
		return "∞"
	}
	return fmt.Sprintf("%.6g", v)
}
