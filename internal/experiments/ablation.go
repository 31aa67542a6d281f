package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// AblationCoordinator compares the three coordination strategies of
// Section 2/7: Planaria's decoupled "parallel learning + serial issuing"
// against a TPC-style serial coordinator (monolithic sub-prefetchers) and an
// ISB-style parallel coordinator (both issue). It backs the design claim
// that decoupling buys accuracy and coverage simultaneously. The cells are
// one sweep of the no-prefetcher baseline and the three registry
// configurations.
func AblationCoordinator(w io.Writer, opts Options) (map[string]map[core.CoordMode]metrics.Report, error) {
	coords := []struct {
		mode core.CoordMode
		pf   string
	}{{core.Decoupled, "planaria"}, {core.Serial, "planaria-serial"}, {core.Parallel, "planaria-parallel"}}
	pfs := []string{"none"}
	for _, c := range coords {
		pfs = append(pfs, c.pf)
	}
	reps, err := Sweep(pfs, opts)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "\n== Ablation: coordinator mode (AMAT / accuracy / traffic overhead) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, c := range coords {
		fmt.Fprintf(w, "%24s", c.mode)
	}
	fmt.Fprintln(w)
	out := make(map[string]map[core.CoordMode]metrics.Report)
	for _, a := range appOrder(reps) {
		base := reps[a]["none"]
		out[a] = make(map[core.CoordMode]metrics.Report)
		fmt.Fprintf(w, "%-6s", a)
		for _, c := range coords {
			rep := reps[a][c.pf]
			out[a][c.mode] = rep
			ovh := metrics.Improvement(float64(base.Traffic()), float64(rep.Traffic()))
			fmt.Fprintf(w, "  %7.1f %5.1f%% %+5.1f%%", rep.AMAT, 100*rep.Accuracy(), 100*ovh)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// planariaWith returns the default engine configuration running the
// Planaria composite built from core.DefaultConfig as edited by set.
func planariaWith(set func(*core.Config)) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		c := core.DefaultConfig()
		set(&c)
		return core.New(c)
	}
	return cfg
}

// AblationDistance sweeps TLP's neighbour distance threshold (Section 4.2
// fixes it at 64; Figure 5 motivates the range).
func AblationDistance(w io.Writer, opts Options, dists []uint64) (map[string]map[uint64]metrics.Report, error) {
	if len(dists) == 0 {
		dists = []uint64{4, 16, 64, 128}
	}
	fmt.Fprintf(w, "\n== Ablation: TLP distance threshold (AMAT) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, d := range dists {
		fmt.Fprintf(w, "%11s%d", "d=", d)
	}
	fmt.Fprintln(w)
	out := make(map[string]map[uint64]metrics.Report)
	for _, p := range workloads.Catalog() {
		out[p.Abbr] = make(map[uint64]metrics.Report)
		fmt.Fprintf(w, "%-6s", p.Abbr)
		for _, d := range dists {
			rep, err := runOne(p, planariaWith(func(c *core.Config) { c.TLP.DistThreshold = d }), opts)
			if err != nil {
				return nil, err
			}
			out[p.Abbr][d] = rep
			fmt.Fprintf(w, "%12.1f", rep.AMAT)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}

// AblationPTSize sweeps SLP's pattern-history-table capacity, trading
// storage (the paper's 345.2 KB budget) against coverage.
func AblationPTSize(w io.Writer, opts Options, sizes []int) (map[string]map[int]metrics.Report, error) {
	if len(sizes) == 0 {
		sizes = []int{1024, 4096, 16384, 65536}
	}
	fmt.Fprintf(w, "\n== Ablation: SLP pattern table size (AMAT / storage KB) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, s := range sizes {
		fmt.Fprintf(w, "%16d", s)
	}
	fmt.Fprintln(w)
	// Representative apps: one SLP-friendly, one TLP-heavy, one irregular.
	apps := []string{"CFM", "Fort", "NBA2"}
	out := make(map[string]map[int]metrics.Report)
	for _, abbr := range apps {
		p, ok := workloads.ByAbbr(abbr)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown app %q", abbr)
		}
		out[abbr] = make(map[int]metrics.Report)
		fmt.Fprintf(w, "%-6s", abbr)
		for _, s := range sizes {
			rep, err := runOne(p, planariaWith(func(c *core.Config) { c.SLP.PTEntries = s }), opts)
			if err != nil {
				return nil, err
			}
			out[abbr][s] = rep
			fmt.Fprintf(w, "%9.1f %5.0fKB", rep.AMAT, float64(rep.StorageBits)/8/1024)
		}
		fmt.Fprintln(w)
	}
	return out, nil
}
