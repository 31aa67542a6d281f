package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/analysis"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweepfarm"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Options controls experiment scale.
type Options struct {
	Requests int // trace length per app (paper: ~68 M; cmd/experiments: 800k)
	// Warmup is the fraction of each trace run before statistics are
	// reset (standard trace-simulation warmup, clamped as sim.ClampWarmup
	// clamps it; 0 disables; cmd/experiments: 0.2).
	Warmup float64

	// SampleEvery enables windowed time-series sampling inside every
	// simulated run: one metrics sample per N trace records (zero
	// disables). Reports then carry a Series, and JSON artifacts include
	// it. See docs/OBSERVABILITY.md.
	SampleEvery uint64

	// ArtifactDir, when non-empty, is the farm's checkpoint directory: each
	// completed job is written there ("<app>_<prefetcher>_<variant>_r<N>.json",
	// schema v3), and a job whose checkpoint matches is loaded instead of
	// simulated again.
	ArtifactDir string

	// Progress, when non-nil, receives job-granular run progress from the
	// farm (telemetry.RunProgress) — the backing state of cmd/experiments'
	// -live-dir views. The registry is never handed to the engines, so
	// reports do not depend on it.
	Progress *telemetry.Registry

	// ExtraPrefetchers adds named prefetchers (sim.PrefetcherNames) to the
	// EvalSet, the grid of fig7, fig8, fig10, tab-ipc, tab-traffic, csv and
	// all — the way to put "planaria-tournament" (or "markov", "accel", …)
	// side by side with the paper's comparison points. Duplicates of the
	// base set are ignored. The fixed-column paper tables (Fig8, Fig10,
	// IPC, traffic) keep their original columns; extras appear in the Fig7
	// table, the CSV and the artifacts.
	ExtraPrefetchers []string
}

// EvalPrefetchers is the prefetcher set of Figures 7, 8 and 10.
var EvalPrefetchers = []string{"none", "bop", "spp", "planaria"}

// EvalSet returns EvalPrefetchers plus the options' extra prefetchers,
// original order preserved and duplicates dropped.
func (o Options) EvalSet() []string {
	return union(EvalPrefetchers, o.ExtraPrefetchers)
}

// union concatenates the sets, dropping empty names and repeats.
func union(sets ...[]string) []string {
	var out []string
	for _, pf := range slices.Concat(sets...) {
		if pf != "" && !slices.Contains(out, pf) {
			out = append(out, pf)
		}
	}
	return out
}

// An Experiment is one entry of the evaluation: the grid it simulates on
// the sweep farm and the renderer that prints its tables.
type Experiment struct {
	// Grid is the cells the experiment simulates; nil for one that
	// simulates nothing (fig2, fig4, fig5 and tab-storage).
	Grid *sweepfarm.Grid

	// render prints the experiment's tables from repeat 0 of a clean run
	// and returns its summary scalars; nil renders the farm's mean ± CI95
	// tables, as a -grid file does.
	render renderer
}

// renderer prints an experiment's tables from a farm result (nil when the
// experiment simulates nothing) and returns its summary scalars.
type renderer func(w io.Writer, res *sweepfarm.Result, opts Options) (map[string]float64, error)

// table is the evaluation, one entry per cmd/experiments -run id: the grid
// the id simulates under the options (nil: none) and its renderer.
var table = map[string]struct {
	grid   func(Options) sweepfarm.Grid
	render renderer
}{
	"all":         {allGrid, renderAll},
	"fig2":        {nil, fig2},
	"fig4":        {nil, fig4},
	"fig5":        {nil, fig5},
	"fig7":        {evalGrid, afterFig7(nil)},
	"fig8":        {evalGrid, afterFig7(fig8)},
	"fig9":        {prefetchers(fig9Prefetchers...), fromReports(fig9)},
	"fig9b":       {prefetchers("planaria"), fromReports(fig9b)},
	"fig10":       {evalGrid, afterFig7(fig10)},
	"tab-ipc":     {evalGrid, afterFig7(tableIPC)},
	"tab-traffic": {evalGrid, afterFig7(tableTraffic)},
	"tab-storage": {nil, storage},
	"cache-study": {cacheGrid, cacheStudy},
	"abl-coord":   {coordGrid, ablationCoordinator},
	"abl-dist":    {distGrid, ablationDistance},
	"abl-pt":      {ptGrid, ablationPTSize},
	"csv":         {evalGrid, csvTable},
}

// Lookup returns the experiment of a cmd/experiments -run id under opts.
func Lookup(id string, opts Options) (Experiment, error) {
	entry, ok := table[id]
	if !ok {
		return Experiment{}, fmt.Errorf("unknown experiment %q", id)
	}
	e := Experiment{render: entry.render}
	if entry.grid != nil {
		g := entry.grid(opts)
		e.Grid = &g
	}
	return e, nil
}

// Outcome is what one Run produced.
type Outcome struct {
	Farm    *sweepfarm.Result  // the grid's result; nil when e simulates nothing
	Summary map[string]float64 // the renderer's headline scalars
}

// Run is the one way an experiment runs: it simulates e's grid once on the
// sweep farm — resuming from and checkpointing to opts.ArtifactDir, with
// progress on opts.Progress, cancelled through ctx — and renders it to w.
// The renderer runs only on a clean grid; the farm's mean ± CI95 tables
// and job counts follow when the grid has more than one repeat, and stand
// in for a nil renderer. On failure the Outcome still carries every
// completed cell, and the error joins one entry per failed job.
func Run(ctx context.Context, w io.Writer, e Experiment, opts Options) (Outcome, error) {
	var out Outcome
	var err error
	if e.Grid != nil {
		runner := &sweepfarm.Runner{
			Grid:        *e.Grid,
			Base:        sweepfarm.Config{Requests: opts.Requests, Warmup: opts.Warmup, SampleEvery: opts.SampleEvery},
			ArtifactDir: opts.ArtifactDir,
			Progress:    opts.Progress,
		}
		if out.Farm, err = runner.Run(ctx); out.Farm == nil {
			return out, err
		}
	}
	if e.render != nil && err == nil {
		out.Summary, err = e.render(w, out.Farm, opts)
	}
	if out.Farm != nil && (e.render == nil || out.Farm.Grid.Repeats > 1) {
		sweepfarm.TableHitRate(w, out.Farm)
		sweepfarm.TableAMAT(w, out.Farm)
		sweepfarm.TablePower(w, out.Farm)
		fmt.Fprintf(w, "\nfarm: %d jobs executed, %d resumed, %d failed\n",
			out.Farm.Executed, out.Farm.Resumed, out.Farm.Failed)
	}
	return out, err
}

// Cells lists repeat 0 of every complete cell of a farm result: apps in
// grid order, prefetchers sorted by name within each app, variants in grid
// order. The order is deterministic, so JSON artifacts built from it are
// diff-stable.
func Cells(res *sweepfarm.Result) []obs.Cell {
	if res == nil {
		return nil
	}
	var cells []obs.Cell
	for _, c := range res.Cells {
		if c.Complete() {
			cells = append(cells, obs.Cell{App: c.Key.App, Prefetcher: c.Key.Prefetcher,
				Variant: c.Key.Variant, Report: c.Repeats[0].Report})
		}
	}
	rank := make(map[string]int, len(res.Grid.Apps))
	for i, a := range res.Grid.Apps {
		rank[a] = i
	}
	slices.SortStableFunc(cells, func(a, b obs.Cell) int {
		return cmp.Or(cmp.Compare(rank[a.App], rank[b.App]), strings.Compare(a.Prefetcher, b.Prefetcher))
	})
	return cells
}

// The grids.

// prefetchers returns the grid of the catalog apps under the named
// prefetchers.
func prefetchers(pfs ...string) func(Options) sweepfarm.Grid {
	return func(Options) sweepfarm.Grid { return sweepfarm.Grid{Prefetchers: slices.Clone(pfs)} }
}

// evalGrid is the catalog under the EvalSet: the cells of Figures 7, 8 and
// 10, the IPC and traffic tables and the CSV.
func evalGrid(opts Options) sweepfarm.Grid {
	return sweepfarm.Grid{Prefetchers: opts.EvalSet()}
}

// fig9Prefetchers is the Figure 9 set: the baseline, the SLP-only and
// TLP-only variants and the full composite.
var fig9Prefetchers = []string{"none", "planaria-slp", "planaria-tlp", "planaria"}

// allGrid is the whole evaluation: the EvalSet and the two Figure 9
// variants, each cell once.
func allGrid(opts Options) sweepfarm.Grid {
	return sweepfarm.Grid{Prefetchers: union(opts.EvalSet(), fig9Prefetchers)}
}

// The renderers and their tables.

// reports is one variant's repeat-0 reports by app and prefetcher.
type reports = map[string]map[string]metrics.Report

// fromReports adapts a table of the base variant's reports to a renderer.
func fromReports(table func(io.Writer, reports) map[string]float64) renderer {
	return func(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
		return table(w, res.ReportGrid("")), nil
	}
}

// afterFig7 renders the Figure 7 table of the EvalSet cells, then table
// (when non-nil) from the same reports.
func afterFig7(table func(io.Writer, reports) map[string]float64) renderer {
	return func(w io.Writer, res *sweepfarm.Result, opts Options) (map[string]float64, error) {
		reps := res.ReportGrid("")
		fig7Table(w, reps, opts.EvalSet())
		if table == nil {
			return nil, nil
		}
		return table(w, reps), nil
	}
}

// renderAll prints every figure and table of the evaluation, each from the
// one sweep of allGrid.
func renderAll(w io.Writer, res *sweepfarm.Result, opts Options) (map[string]float64, error) {
	fig4(w, nil, opts)
	fig5(w, nil, opts)
	reps := res.ReportGrid("")
	fig7Table(w, reps, opts.EvalSet())
	for _, table := range []func(io.Writer, reports) map[string]float64{
		fig8, fig9, fig9b, fig10, tableIPC, tableTraffic,
	} {
		table(w, reps)
	}
	_, err := storage(w, nil, opts)
	return nil, err
}

func header(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-6s", "app")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}

// appOrder lists the catalog apps that have reports, in Table 2 order.
func appOrder(m reports) []string {
	var out []string
	for _, a := range workloads.Abbrs() {
		if _, ok := m[a]; ok {
			out = append(out, a)
		}
	}
	return out
}

// fig4 prints the per-app overlap rate (paper: average > 80 %).
func fig4(w io.Writer, _ *sweepfarm.Result, opts Options) (map[string]float64, error) {
	fmt.Fprintf(w, "\n== Figure 4: footprint overlap rate ==\n")
	var rates []float64
	for _, p := range workloads.Catalog() {
		r := analysis.OverlapRate(p.Generate(opts.Requests))
		rates = append(rates, r)
		fmt.Fprintf(w, "%-6s %6.1f%%\n", p.Abbr, 100*r)
	}
	avg := metrics.Mean(rates)
	fmt.Fprintf(w, "%-6s %6.1f%%   (paper: > 80%% on average)\n", "avg", 100*avg)
	return map[string]float64{"fig4_overlap_rate_avg": avg}, nil
}

// fig5 prints the learnable-neighbour proportion per distance threshold
// (paper: 26.95 % at distance 4, 39.26 % at distance 64 on average).
func fig5(w io.Writer, _ *sweepfarm.Result, opts Options) (map[string]float64, error) {
	dists := []uint64{4, 8, 16, 32, 64}
	fmt.Fprintf(w, "\n== Figure 5: learnable neighbouring pages ==\n")
	fmt.Fprintf(w, "%-6s", "app")
	for _, d := range dists {
		fmt.Fprintf(w, "%9s%d", "d=", d)
	}
	fmt.Fprintln(w)
	sums := make([]float64, len(dists))
	n := 0
	for _, p := range workloads.Catalog() {
		props := analysis.NeighborProportion(p.Generate(opts.Requests), dists, 4)
		fmt.Fprintf(w, "%-6s", p.Abbr)
		for i, pr := range props {
			fmt.Fprintf(w, "%9.1f%%", 100*pr)
			sums[i] += pr
		}
		fmt.Fprintln(w)
		n++
	}
	fmt.Fprintf(w, "%-6s", "avg")
	for i := range dists {
		fmt.Fprintf(w, "%9.1f%%", 100*sums[i]/float64(n))
	}
	fmt.Fprintf(w, "   (paper avg: 26.95%% @4, 39.26%% @64)\n")
	return map[string]float64{
		"fig5_neighbors_at4":  sums[0] / float64(n),
		"fig5_neighbors_at64": sums[len(dists)-1] / float64(n),
	}, nil
}

// fig7Table prints the Figure 7 table, SC hit rate per app under each of
// the set's prefetchers.
func fig7Table(w io.Writer, reps reports, set []string) {
	header(w, "Figure 7: SC hit rate", set)
	for _, a := range appOrder(reps) {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range set {
			fmt.Fprintf(w, "%11.1f%%", 100*reps[a][pf].HitRate())
		}
		fmt.Fprintln(w)
	}
}

// fig8 prints per-app AMAT and the headline reductions (paper: Planaria
// −24.3 % vs none, −21.3 % vs BOP, −15.1 % vs SPP; SPP −10.8 % and BOP
// −3.3 % vs none).
func fig8(w io.Writer, reps reports) map[string]float64 {
	header(w, "Figure 8: AMAT (cycles)", EvalPrefetchers)
	var rNone, rBOP, rSPP []float64
	for _, a := range appOrder(reps) {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range EvalPrefetchers {
			fmt.Fprintf(w, "%12.1f", reps[a][pf].AMAT)
		}
		fmt.Fprintln(w)
		pl := reps[a]["planaria"].AMAT
		rNone = append(rNone, metrics.Reduction(reps[a]["none"].AMAT, pl))
		rBOP = append(rBOP, metrics.Reduction(reps[a]["bop"].AMAT, pl))
		rSPP = append(rSPP, metrics.Reduction(reps[a]["spp"].AMAT, pl))
	}
	vsNone, vsBOP, vsSPP := metrics.Mean(rNone), metrics.Mean(rBOP), metrics.Mean(rSPP)
	fmt.Fprintf(w, "Planaria AMAT reduction: %.1f%% vs none, %.1f%% vs BOP, %.1f%% vs SPP\n",
		100*vsNone, 100*vsBOP, 100*vsSPP)
	fmt.Fprintf(w, "(paper: 24.3%%, 21.3%%, 15.1%%)\n")
	return map[string]float64{
		"fig8_amat_reduction_vs_none": vsNone,
		"fig8_amat_reduction_vs_bop":  vsBOP,
		"fig8_amat_reduction_vs_spp":  vsSPP,
	}
}

// fig9 prints the Planaria breakdown (SLP-only, TLP-only, full) and each
// variant's share of the AMAT improvement (paper: SLP ≈ 80 % overall, TLP
// dominant on Fort). The summary holds the average share and each app's.
func fig9(w io.Writer, reps reports) map[string]float64 {
	header(w, "Figure 9: breakdown (AMAT reduction share)", []string{"slp-only", "tlp-only", "slp-share"})
	summary := map[string]float64{}
	var shares []float64
	for _, a := range appOrder(reps) {
		base := reps[a]["none"].AMAT
		full := metrics.Reduction(base, reps[a]["planaria"].AMAT)
		slp := metrics.Reduction(base, reps[a]["planaria-slp"].AMAT)
		tlp := metrics.Reduction(base, reps[a]["planaria-tlp"].AMAT)
		share := 0.0
		if slp+tlp > 0 {
			share = slp / (slp + tlp)
		}
		summary["fig9_slp_share:"+a] = share
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s%11.1f%%%11.1f%%%11.1f%%   (full %.1f%%)\n",
			a, 100*slp, 100*tlp, 100*share, 100*full)
	}
	avg := metrics.Mean(shares)
	fmt.Fprintf(w, "average SLP share: %.1f%%   (paper: ~80%%)\n", 100*avg)
	summary["fig9_slp_share_avg"] = avg
	return summary
}

// fig9b prints the in-system breakdown: useful prefetches attributed to
// each sub-prefetcher inside the full Planaria configuration (a second,
// attribution-based view of Figure 9; fig9 uses the standalone-variant
// method).
func fig9b(w io.Writer, reps reports) map[string]float64 {
	fmt.Fprintf(w, "\n== Figure 9 (in-system attribution): useful prefetches per sub-prefetcher ==\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "app", "slp", "tlp", "slp-share")
	var shares []float64
	for _, a := range appOrder(reps) {
		rep := reps[a]["planaria"]
		slp := rep.UsefulByOrigin["slp"]
		tlp := rep.UsefulByOrigin["tlp"]
		share := 0.0
		if slp+tlp > 0 {
			share = float64(slp) / float64(slp+tlp)
		}
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s %12d %12d %11.1f%%\n", a, slp, tlp, 100*share)
	}
	avg := metrics.Mean(shares)
	fmt.Fprintf(w, "average SLP share of useful prefetches: %.1f%%   (paper: ~80%%)\n", 100*avg)
	return map[string]float64{"fig9b_slp_share_avg": avg}
}

// overheads prints each app's overhead of bop, spp and planaria over none
// in the metric of, then the averages, and returns the averages by
// prefetcher.
func overheads(w io.Writer, reps reports, title string, of func(metrics.Report) float64) map[string]float64 {
	pfs := []string{"bop", "spp", "planaria"}
	header(w, title, pfs)
	avgs := map[string][]float64{}
	for _, a := range appOrder(reps) {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range pfs {
			ovh := metrics.Improvement(of(reps[a]["none"]), of(reps[a][pf]))
			avgs[pf] = append(avgs[pf], ovh)
			fmt.Fprintf(w, "%11.1f%%", 100*ovh)
		}
		fmt.Fprintln(w)
	}
	out := make(map[string]float64, len(pfs))
	for _, pf := range pfs {
		out[pf] = metrics.Mean(avgs[pf])
	}
	return out
}

// fig10 prints per-app memory-system energy overhead vs no prefetcher
// (paper: Planaria +0.5 % avg, BOP +13.5 %, SPP +9.7 %).
func fig10(w io.Writer, reps reports) map[string]float64 {
	avg := overheads(w, reps, "Figure 10: memory power overhead vs none",
		func(r metrics.Report) float64 { return r.Energy.Total() })
	fmt.Fprintf(w, "average: BOP %+.1f%%, SPP %+.1f%%, Planaria %+.1f%%   (paper: +13.5%%, +9.7%%, +0.5%%)\n",
		100*avg["bop"], 100*avg["spp"], 100*avg["planaria"])
	return map[string]float64{
		"power_overhead_planaria": avg["planaria"],
		"power_overhead_bop":      avg["bop"],
		"power_overhead_spp":      avg["spp"],
	}
}

// tableTraffic prints DRAM traffic overhead vs none (paper: SPP +15.9 %,
// BOP +23.4 %).
func tableTraffic(w io.Writer, reps reports) map[string]float64 {
	avg := overheads(w, reps, "Traffic overhead vs none",
		func(r metrics.Report) float64 { return float64(r.Traffic()) })
	fmt.Fprintf(w, "average: BOP %+.1f%%, SPP %+.1f%%, Planaria %+.1f%%   (paper: +23.4%%, +15.9%%, small)\n",
		100*avg["bop"], 100*avg["spp"], 100*avg["planaria"])
	return map[string]float64{
		"traffic_overhead_bop":      avg["bop"],
		"traffic_overhead_spp":      avg["spp"],
		"traffic_overhead_planaria": avg["planaria"],
	}
}

// tableIPC prints the estimated IPC uplift (paper: +28.9 % vs none,
// +21.9 % vs BOP, +15.3 % vs SPP). The IPC model maps AMAT to IPC, so
// the table restates Figure 8 (DESIGN.md).
func tableIPC(w io.Writer, reps reports) map[string]float64 {
	model := metrics.DefaultIPCModel()
	header(w, "IPC estimate (model, see DESIGN.md)", EvalPrefetchers)
	var uNone, uBOP, uSPP []float64
	for _, a := range appOrder(reps) {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range EvalPrefetchers {
			fmt.Fprintf(w, "%12.3f", model.IPC(reps[a][pf].AMAT))
		}
		fmt.Fprintln(w)
		pl := model.IPC(reps[a]["planaria"].AMAT)
		uNone = append(uNone, metrics.Improvement(model.IPC(reps[a]["none"].AMAT), pl))
		uBOP = append(uBOP, metrics.Improvement(model.IPC(reps[a]["bop"].AMAT), pl))
		uSPP = append(uSPP, metrics.Improvement(model.IPC(reps[a]["spp"].AMAT), pl))
	}
	vsNone, vsBOP, vsSPP := metrics.Mean(uNone), metrics.Mean(uBOP), metrics.Mean(uSPP)
	fmt.Fprintf(w, "Planaria IPC uplift: %.1f%% vs none, %.1f%% vs BOP, %.1f%% vs SPP\n",
		100*vsNone, 100*vsBOP, 100*vsSPP)
	fmt.Fprintf(w, "(paper: 28.9%%, 21.9%%, 15.3%%)\n")
	return map[string]float64{
		"ipc_uplift_vs_none": vsNone,
		"ipc_uplift_vs_bop":  vsBOP,
		"ipc_uplift_vs_spp":  vsSPP,
	}
}

// storage prints the prefetcher metadata budget (paper: 345.2 KB).
func storage(w io.Writer, _ *sweepfarm.Result, _ Options) (map[string]float64, error) {
	return tableStorage(w, "planaria")
}

func tableStorage(w io.Writer, name string) (map[string]float64, error) {
	factory, err := sim.NamedPrefetcher(name)
	if err != nil {
		// A registry rename must surface as an error, not as a nil factory
		// dereference on the next line.
		return nil, fmt.Errorf("storage table: %w", err)
	}
	bits := 0
	for ch := 0; ch < 4; ch++ {
		bits += factory(ch).StorageBits()
	}
	kb := float64(bits) / 8 / 1024
	fmt.Fprintf(w, "\n== Storage ==\nPlanaria metadata: %.1f KB across 4 channels (paper: 345.2 KB = 8.4%% of 4 MB SC)\n", kb)
	return map[string]float64{"planaria_storage_kb": kb}, nil
}

// fig2 extracts the snapshot timeline of a hot page (rendered as text).
func fig2(w io.Writer, _ *sweepfarm.Result, opts Options) (map[string]float64, error) {
	p := workloads.Catalog()[0]
	t := p.Generate(opts.Requests)
	hot := analysis.HottestPages(t, 1)
	if len(hot) == 0 {
		return map[string]float64{"fig2_timeline_accesses": 0}, nil
	}
	pts := analysis.PageTimeline(t, hot[0])
	fmt.Fprintf(w, "\n== Figure 2: footprint snapshot of page %#x (%s) ==\n", uint64(hot[0]), p.Abbr)
	limit := pts
	if len(limit) > 64 {
		limit = limit[:64]
	}
	for _, pt := range limit {
		fmt.Fprintf(w, "cycle %10d  block %2d %s\n", pt.Cycle, pt.Offset, strings.Repeat(" ", pt.Offset)+"*")
	}
	if len(pts) > 64 {
		fmt.Fprintf(w, "... (%d more accesses)\n", len(pts)-64)
	}
	return map[string]float64{"fig2_timeline_accesses": float64(len(pts))}, nil
}
