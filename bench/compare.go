package main

import (
	"fmt"
	"io"
	"math"
)

// worsening is how much worse b is than a, as a share of a, in m's
// direction (negative when b is better).
func worsening(m metric, a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareResults prints, per workload, each end-to-end metric's median,
// quartiles and sample count on both sides with its verdict, then the
// per-layer values. It returns false when a workload is missing or failed,
// an end-to-end median worsened past its bound, or an exact value (a
// simulated quantity or count) differs. Per-layer host times are only
// reported against hostTimeBound.
func compareResults(w io.Writer, a, b *results) bool {
	ok := true
	if a.Provenance.Seed != b.Provenance.Seed {
		fmt.Fprintf(w, "seeds differ (%d vs %d): exact values are expected to disagree\n",
			a.Provenance.Seed, b.Provenance.Seed)
	}
	for _, wl := range workloadList {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing from one side\n", wl.name)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s (failed %d/%d vs %d/%d)\n", wl.name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if ra.Failed > 0 || rb.Failed > 0 {
			ok = false
		}
		for _, m := range endToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			sb, okB := rb.EndToEnd[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-14s missing\n", m.Name)
				ok = false
				continue
			}
			change := worsening(m, sa.Median, sb.Median)
			verdict := "within bound"
			switch {
			case m.Exact && sa.Median != sb.Median:
				verdict, ok = "DIFFERS", false
			case m.Exact:
				verdict = "identical"
			case change > m.Bound:
				verdict, ok = fmt.Sprintf("OUTSIDE bound %.0f%%", 100*m.Bound), false
			}
			fmt.Fprintf(w, "  %-14s %12.6g [%.6g, %.6g] n=%d | %12.6g [%.6g, %.6g] n=%d | worse %+6.1f%% %s\n",
				m.Name, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, 100*change, verdict)
		}
		for _, m := range perLayer {
			va, okA := ra.PerLayer[m.Name]
			vb, okB := rb.PerLayer[m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "  %-48s missing\n", m.Name)
				ok = false
				continue
			}
			change := worsening(m, va.Value, vb.Value)
			verdict := ""
			switch {
			case m.Exact && va.Value != vb.Value:
				verdict, ok = "DIFFERS", false
			case m.Exact:
				verdict = "identical"
			case change > hostTimeBound:
				verdict = fmt.Sprintf("outside %.0f%% (host time, reported only)", 100*hostTimeBound)
			}
			fmt.Fprintf(w, "  %-48s %12.6g | %12.6g %-9s worse %+7.1f%% %s\n",
				m.Name, va.Value, vb.Value, m.Unit, 100*change, verdict)
		}
	}
	return ok
}

// compareFiles compares two results files (see compareResults).
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	return compareResults(w, a, b), nil
}
