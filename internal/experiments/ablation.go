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

// RunOneWith simulates one app trace under an arbitrary prefetcher factory
// (the hook the ablation sweeps use).
func RunOneWith(p workloads.Profile, factory func(int) prefetch.Prefetcher, opts Options) (metrics.Report, error) {
	cfg := sim.DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.SampleEvery = opts.SampleEvery
	return runProfile(sim.New(cfg), p, opts)
}

// AblationCoordinator compares the three coordination strategies of
// Section 2/7: Planaria's decoupled "parallel learning + serial issuing"
// against a TPC-style serial coordinator (monolithic sub-prefetchers) and an
// ISB-style parallel coordinator (both issue). It backs the design claim
// that decoupling buys accuracy and coverage simultaneously.
func AblationCoordinator(w io.Writer, opts Options) (map[string]map[core.CoordMode]metrics.Report, error) {
	modes := []core.CoordMode{core.Decoupled, core.Serial, core.Parallel}
	fmt.Fprintf(w, "\n== Ablation: coordinator mode (AMAT / accuracy / traffic overhead) ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, m := range modes {
		fmt.Fprintf(w, "%24s", m)
	}
	fmt.Fprintln(w)
	out := make(map[string]map[core.CoordMode]metrics.Report)
	for _, p := range workloads.Catalog() {
		base, err := RunOne(p, "none", opts)
		if err != nil {
			return nil, err
		}
		out[p.Abbr] = make(map[core.CoordMode]metrics.Report)
		fmt.Fprintf(w, "%-6s", p.Abbr)
		for _, m := range modes {
			mode := m
			rep, err := RunOneWith(p, func(int) prefetch.Prefetcher {
				cfg := core.DefaultConfig()
				cfg.Mode = mode
				return core.New(cfg)
			}, opts)
			if err != nil {
				return nil, err
			}
			out[p.Abbr][m] = rep
			ovh := metrics.Improvement(float64(base.Traffic()), float64(rep.Traffic()))
			fmt.Fprintf(w, "  %7.1f %5.1f%% %+5.1f%%", rep.AMAT, 100*rep.Accuracy(), 100*ovh)
		}
		fmt.Fprintln(w)
	}
	return out, nil
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
			dist := d
			rep, err := RunOneWith(p, func(int) prefetch.Prefetcher {
				cfg := core.DefaultConfig()
				cfg.TLP.DistThreshold = dist
				return core.New(cfg)
			}, opts)
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
			size := s
			rep, err := RunOneWith(p, func(int) prefetch.Prefetcher {
				cfg := core.DefaultConfig()
				cfg.SLP.PTEntries = size
				return core.New(cfg)
			}, opts)
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
