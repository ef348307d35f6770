package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readCombined(path string) (combinedReport, error) {
	var c combinedReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
)

// judge compares b against the baseline a for one metric. worse is b's
// worsening as a share of a (negative = better). A row whose own
// round-to-round spread, on either side, exceeds the bound cannot be
// resolved at that bound: a breach there may be noise, and so may a pass.
func judge(m specE2E, a, b reportMetric) (worse float64, verdict string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case quartileSpread(a.Rounds) > m.Bound || quartileSpread(b.Rounds) > m.Bound:
		verdict = verdictUnresolved
	case worse > m.Bound:
		verdict = verdictBreach
	default:
		verdict = verdictOK
	}
	return worse, verdict
}

// compareReports prints, for every (workload, end-to-end metric), both
// values, b's relative change with its base, the bound BENCHMARK.json
// declares (this binary's own table; a test pins the file to it) and the
// verdict. It returns false when any row breaches its bound or b
// fails more ops than a — the (metric, baseline row, tolerance) gate.
func compareReports(w io.Writer, pathA, pathB string) (bool, error) {
	spec := buildSpec()
	a, err := readCombined(pathA)
	if err != nil {
		return false, err
	}
	b, err := readCombined(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "baseline a = %s (seed %d)   candidate b = %s (seed %d)\n", pathA, a.Seed, pathB, b.Seed)
	fmt.Fprintf(w, "%-18s %-20s %14s %14s %26s %7s %8s %8s  %s\n",
		"workload", "metric", "a", "b", "change (base a)", "bound", "spread_a", "spread_b", "verdict")
	pass := true
	var breaches, unresolved int
	for _, wl := range spec.Workloads {
		ra, okA := a.Workloads[wl.Name]
		rb, okB := b.Workloads[wl.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-18s missing from a report\n", wl.Name)
			pass = false
			continue
		}
		if ra.EndToEnd.InputHash != rb.EndToEnd.InputHash {
			fmt.Fprintf(w, "%-18s inputs differ (%s vs %s): the rows below compare different data\n",
				wl.Name, ra.EndToEnd.InputHash, rb.EndToEnd.InputHash)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := ra.EndToEnd.Metrics[m.Name], rb.EndToEnd.Metrics[m.Name]
			worse, verdict := judge(m, ma, mb)
			change := fmt.Sprintf("%+.2f%% of %.6g %s", 100*(mb.Value-ma.Value)/nonZero(ma.Value), ma.Value, m.Unit)
			fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %26s %6.1f%% %7.1f%% %7.1f%%  %s",
				wl.Name, m.Name, ma.Value, mb.Value, change, 100*m.Bound,
				100*quartileSpread(ma.Rounds), 100*quartileSpread(mb.Rounds), verdict)
			if verdict == verdictBreach {
				fmt.Fprintf(w, " (%.1f%% worse)", 100*worse)
				breaches++
				pass = false
			}
			if verdict == verdictUnresolved {
				unresolved++
			}
			fmt.Fprintln(w)
		}
		// error_rate: any increase is a regression.
		ea := float64(ra.EndToEnd.Failed) / float64(max(ra.EndToEnd.Attempted, 1))
		eb := float64(rb.EndToEnd.Failed) / float64(max(rb.EndToEnd.Attempted, 1))
		verdict := verdictOK
		if eb > ea {
			verdict = verdictBreach
			breaches++
			pass = false
		}
		fmt.Fprintf(w, "%-18s %-20s %14.6g %14.6g %26s %7s %8s %8s  %s\n",
			wl.Name, "error_rate", ea, eb, fmt.Sprintf("%d/%d -> %d/%d ops", ra.EndToEnd.Failed, ra.EndToEnd.Attempted,
				rb.EndToEnd.Failed, rb.EndToEnd.Attempted), "any", "", "", verdict)
	}
	fmt.Fprintf(w, "%d breaches, %d unresolved\n", breaches, unresolved)
	return pass, nil
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}
