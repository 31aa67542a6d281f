package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweepfarm"
)

// coordinators pairs the three coordination strategies of Section 2/7 with
// their registry prefetchers: Planaria's decoupled "parallel learning +
// serial issuing", a TPC-style serial coordinator (monolithic
// sub-prefetchers) and an ISB-style parallel coordinator (both issue).
var coordinators = []struct {
	mode core.CoordMode
	pf   string
}{{core.Decoupled, "planaria"}, {core.Serial, "planaria-serial"}, {core.Parallel, "planaria-parallel"}}

// coordGrid is the catalog under the no-prefetcher baseline and the three
// coordinators.
func coordGrid(Options) sweepfarm.Grid {
	g := sweepfarm.Grid{Prefetchers: []string{"none"}}
	for _, c := range coordinators {
		g.Prefetchers = append(g.Prefetchers, c.pf)
	}
	return g
}

// ablationCoordinator compares the coordinators' AMAT, accuracy and
// traffic overhead. It backs the design claim that decoupling buys
// accuracy and coverage simultaneously.
func ablationCoordinator(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
	reps := res.ReportGrid("")
	fmt.Fprintf(w, "\n== Ablation: coordinator mode (AMAT / accuracy / traffic overhead) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, c := range coordinators {
		fmt.Fprintf(w, "%24s", c.mode)
	}
	fmt.Fprintln(w)
	for _, a := range appOrder(reps) {
		base := reps[a]["none"]
		fmt.Fprintf(w, "%-6s", a)
		for _, c := range coordinators {
			rep := reps[a][c.pf]
			ovh := metrics.Improvement(float64(base.Traffic()), float64(rep.Traffic()))
			fmt.Fprintf(w, "  %7.1f %5.1f%% %+5.1f%%", rep.AMAT, 100*rep.Accuracy(), 100*ovh)
		}
		fmt.Fprintln(w)
	}
	return nil, nil
}

// distGrid sweeps TLP's neighbour distance threshold over the catalog
// (Section 4.2 fixes it at 64; Figure 5 motivates the range).
func distGrid(Options) sweepfarm.Grid {
	g := sweepfarm.Grid{Prefetchers: []string{"planaria"}}
	for _, d := range []uint64{4, 16, 64, 128} {
		g.Variants = append(g.Variants, sweepfarm.Variant{Name: fmt.Sprintf("d%d", d), DistThreshold: d})
	}
	return g
}

// ablationDistance prints Planaria's AMAT per app at each distance.
func ablationDistance(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
	fmt.Fprintf(w, "\n== Ablation: TLP distance threshold (AMAT) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, v := range res.Grid.Variants {
		fmt.Fprintf(w, "%11s%d", "d=", v.DistThreshold)
	}
	fmt.Fprintln(w)
	byVariant(w, res, func(rep metrics.Report) { fmt.Fprintf(w, "%12.1f", rep.AMAT) })
	return nil, nil
}

// ptGrid sweeps SLP's pattern-history-table capacity, trading storage (the
// paper's 345.2 KB budget) against coverage, on three representative apps:
// one SLP-friendly, one TLP-heavy, one irregular.
func ptGrid(Options) sweepfarm.Grid {
	g := sweepfarm.Grid{Apps: []string{"CFM", "Fort", "NBA2"}, Prefetchers: []string{"planaria"}}
	for _, n := range []int{1024, 4096, 16384, 65536} {
		g.Variants = append(g.Variants, sweepfarm.Variant{Name: fmt.Sprintf("pt%d", n), PTEntries: n})
	}
	return g
}

// ablationPTSize prints Planaria's AMAT and storage per app at each size.
func ablationPTSize(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
	fmt.Fprintf(w, "\n== Ablation: SLP pattern table size (AMAT / storage KB) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, v := range res.Grid.Variants {
		fmt.Fprintf(w, "%16d", v.PTEntries)
	}
	fmt.Fprintln(w)
	byVariant(w, res, func(rep metrics.Report) {
		fmt.Fprintf(w, "%9.1f %5.0fKB", rep.AMAT, float64(rep.StorageBits)/8/1024)
	})
	return nil, nil
}

// byVariant prints one row per app of res's grid holding, for each of its
// variants in order, cell of the app's planaria report.
func byVariant(w io.Writer, res *sweepfarm.Result, cell func(metrics.Report)) {
	grids := make([]reports, len(res.Grid.Variants))
	for i, v := range res.Grid.Variants {
		grids[i] = res.ReportGrid(v.Name)
	}
	for _, a := range res.Grid.Apps {
		fmt.Fprintf(w, "%-6s", a)
		for _, g := range grids {
			cell(g[a]["planaria"])
		}
		fmt.Fprintln(w)
	}
}
