package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/metrics"
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

	// ArtifactDir, when non-empty, makes Sweep write one JSON run
	// artifact per (app × prefetcher) cell into the directory, named
	// "<app>_<prefetcher>.json", alongside whatever text tables the
	// caller prints.
	ArtifactDir string

	// Progress, when non-nil, receives job-granular run progress from
	// every simulated run (telemetry.RunProgress) — the backing state of
	// cmd/experiments' -live-dir views. Each run declares its records
	// before it starts and adds them when it completes; the registry is
	// never handed to the engines, so reports do not depend on it.
	Progress *telemetry.Registry

	// ExtraPrefetchers adds named prefetchers (sim.PrefetcherNames) to the
	// Figure 7 / CSV sweep set beyond EvalPrefetchers — the way to put
	// "planaria-tournament" (or "markov", "accel", …) side by side with
	// the paper's comparison points. Duplicates of the base set are
	// ignored. The fixed-column paper tables (Fig8, Fig10, IPC, traffic)
	// keep their original columns; extras appear in the Fig7 table, the
	// CSV and the sweep artifacts.
	ExtraPrefetchers []string
}

// EvalSet returns EvalPrefetchers plus the options' extra prefetchers,
// original order preserved and duplicates dropped — the sweep set used by
// Fig7 and the CSV export.
func (o Options) EvalSet() []string {
	out := append([]string(nil), EvalPrefetchers...)
	have := make(map[string]bool, len(out))
	for _, pf := range out {
		have[pf] = true
	}
	for _, pf := range o.ExtraPrefetchers {
		if pf == "" || have[pf] {
			continue
		}
		have[pf] = true
		out = append(out, pf)
	}
	return out
}

// FarmConfig returns the sweep-farm cell configuration the options select.
func (o Options) FarmConfig() sweepfarm.Config {
	return sweepfarm.Config{
		Requests:    o.Requests,
		Warmup:      o.Warmup,
		SampleEvery: o.SampleEvery,
	}
}

// runProfile drives one app through an engine with the options' warmup
// window discarded from the statistics, publishing the run on
// opts.Progress. The records stream straight from the workload generator —
// O(chunk) memory regardless of opts.Requests.
func runProfile(eng *sim.Engine, p workloads.Profile, opts Options) (metrics.Report, error) {
	n := opts.Requests
	records, expected := telemetry.RunProgress(opts.Progress)
	expected.Add(int64(n))
	rep, err := eng.Run(context.Background(), p.Stream(n), p.Abbr, opts.Warmup)
	if err == nil {
		records.Add(uint64(n))
	}
	return rep, err
}

// RunOne simulates one app trace under one named prefetcher.
func RunOne(p workloads.Profile, pf string, opts Options) (metrics.Report, error) {
	factory, err := sim.NamedPrefetcher(pf)
	if err != nil {
		return metrics.Report{}, err
	}
	return RunOneWith(p, factory, opts)
}

// Sweep runs every catalog app under every named prefetcher. Since the
// sweep farm landed it is a thin wrapper over sweepfarm.Runner with one
// repeat, no config variants and no resume directory — the output is bit
// for bit what the original hand-rolled worker pool produced (runs are
// deterministic and repeat 0 keeps each profile's catalog seed), which the
// golden/equivalence tests pin. Callers that want repeats, resumability or
// CI statistics use the farm directly (or cmd/experiments -repeats/-grid).
//
// On failure Sweep degrades instead of discarding the sweep: the returned
// map holds every cell that completed cleanly (failed cells are simply
// absent), and the error joins one entry per failed cell — each prefixed
// with its cell key — so a multi-cell failure diagnoses in a single pass
// instead of one error per re-run. Callers that need an all-or-nothing
// result should treat a non-nil error as fatal; callers surfacing partial
// progress (cmd/experiments) can still write artifacts for the completed
// cells.
func Sweep(prefetchers []string, opts Options) (map[string]map[string]metrics.Report, error) {
	// The old pool tolerated duplicates (map writes made them redundant)
	// and an empty set (empty sweep); keep both behaviours.
	uniq := make([]string, 0, len(prefetchers))
	seen := make(map[string]bool, len(prefetchers))
	for _, pf := range prefetchers {
		if !seen[pf] {
			seen[pf] = true
			uniq = append(uniq, pf)
		}
	}
	if len(uniq) == 0 {
		return map[string]map[string]metrics.Report{}, nil
	}
	runner := &sweepfarm.Runner{
		Grid:     sweepfarm.Grid{Prefetchers: uniq},
		Base:     opts.FarmConfig(),
		Progress: opts.Progress,
	}
	res, runErr := runner.Run(context.Background())
	if res == nil {
		return nil, runErr
	}
	out := res.ReportGrid("")
	var errs []error
	if runErr != nil {
		errs = append(errs, runErr)
	}
	if opts.ArtifactDir != "" {
		// Completed cells are written even on a partial sweep — their
		// reports are valid; any write error joins the run errors rather
		// than shadowing (or being shadowed by) them.
		if werr := writeCellArtifacts(opts.ArtifactDir, out, opts); werr != nil {
			errs = append(errs, werr)
		}
	}
	return out, errors.Join(errs...)
}

// EvalPrefetchers is the prefetcher set of Figures 7, 8 and 10.
var EvalPrefetchers = []string{"none", "bop", "spp", "planaria"}

// Row formatting helpers shared by the runners.

func header(w io.Writer, title string, cols []string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	fmt.Fprintf(w, "%-6s", "app")
	for _, c := range cols {
		fmt.Fprintf(w, "%12s", c)
	}
	fmt.Fprintln(w)
}

func appOrder(m map[string]map[string]metrics.Report) []string {
	abbrs := workloads.Abbrs()
	out := abbrs[:0:0]
	for _, a := range abbrs {
		if _, ok := m[a]; ok {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		for a := range m {
			out = append(out, a)
		}
		sort.Strings(out)
	}
	return out
}

// Fig4 computes the per-app overlap rate (paper: average > 80 %).
func Fig4(w io.Writer, opts Options) (avg float64) {
	fmt.Fprintf(w, "\n== Figure 4: footprint overlap rate ==\n")
	var rates []float64
	for _, p := range workloads.Catalog() {
		r := analysis.OverlapRate(p.Generate(opts.Requests))
		rates = append(rates, r)
		fmt.Fprintf(w, "%-6s %6.1f%%\n", p.Abbr, 100*r)
	}
	avg = metrics.Mean(rates)
	fmt.Fprintf(w, "%-6s %6.1f%%   (paper: > 80%% on average)\n", "avg", 100*avg)
	return avg
}

// Fig5 computes the learnable-neighbour proportion per distance threshold
// (paper: 26.95 % at distance 4, 39.26 % at distance 64 on average).
func Fig5(w io.Writer, opts Options) (avgAt4, avgAt64 float64) {
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
	return sums[0] / float64(n), sums[len(dists)-1] / float64(n)
}

// Fig7 prints the per-app SC hit rate per prefetcher and returns the
// reports for further use. On a partial sweep the completed cells come
// back with the error; the table (which assumes a full grid) is only
// printed for a clean sweep.
func Fig7(w io.Writer, opts Options) (map[string]map[string]metrics.Report, error) {
	set := opts.EvalSet()
	reps, err := Sweep(set, opts)
	if err != nil {
		return reps, err
	}
	header(w, "Figure 7: SC hit rate", set)
	for _, a := range appOrder(reps) {
		fmt.Fprintf(w, "%-6s", a)
		for _, pf := range set {
			fmt.Fprintf(w, "%11.1f%%", 100*reps[a][pf].HitRate())
		}
		fmt.Fprintln(w)
	}
	return reps, nil
}

// Fig8 prints per-app AMAT and the headline reductions (paper: Planaria
// −24.3 % vs none, −21.3 % vs BOP, −15.1 % vs SPP; SPP −10.8 % and BOP
// −3.3 % vs none).
func Fig8(w io.Writer, reps map[string]map[string]metrics.Report) (vsNone, vsBOP, vsSPP float64) {
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
	vsNone, vsBOP, vsSPP = metrics.Mean(rNone), metrics.Mean(rBOP), metrics.Mean(rSPP)
	fmt.Fprintf(w, "Planaria AMAT reduction: %.1f%% vs none, %.1f%% vs BOP, %.1f%% vs SPP\n",
		100*vsNone, 100*vsBOP, 100*vsSPP)
	fmt.Fprintf(w, "(paper: 24.3%%, 21.3%%, 15.1%%)\n")
	return vsNone, vsBOP, vsSPP
}

// fig9Prefetchers is the Figure 9 sweep set — a variable (not a literal in
// Fig9) so the RunAll partial-results test can inject a failing cell.
var fig9Prefetchers = []string{"none", "planaria-slp", "planaria-tlp", "planaria"}

// fig9bPrefetcher is the configuration Fig9b attributes; a variable for
// the same fault-injection reason.
var fig9bPrefetcher = "planaria"

// Fig9 runs the Planaria breakdown (SLP-only, TLP-only, full) and prints
// each variant's share of the AMAT improvement (paper: SLP ≈ 80 % overall,
// TLP dominant on Fort).
func Fig9(w io.Writer, opts Options) (slpShareAvg float64, slpShare map[string]float64, err error) {
	reps, err := Sweep(fig9Prefetchers, opts)
	if err != nil {
		return 0, nil, err
	}
	header(w, "Figure 9: breakdown (AMAT reduction share)", []string{"slp-only", "tlp-only", "slp-share"})
	slpShare = map[string]float64{}
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
		slpShare[a] = share
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s%11.1f%%%11.1f%%%11.1f%%   (full %.1f%%)\n",
			a, 100*slp, 100*tlp, 100*share, 100*full)
	}
	slpShareAvg = metrics.Mean(shares)
	fmt.Fprintf(w, "average SLP share: %.1f%%   (paper: ~80%%)\n", 100*slpShareAvg)
	return slpShareAvg, slpShare, nil
}

// Fig9b prints the in-system breakdown: useful prefetches attributed to
// each sub-prefetcher inside the full Planaria configuration (a second,
// attribution-based view of Figure 9; Fig9 uses the standalone-variant
// method).
func Fig9b(w io.Writer, opts Options) (slpShareAvg float64, err error) {
	fmt.Fprintf(w, "\n== Figure 9 (in-system attribution): useful prefetches per sub-prefetcher ==\n")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "app", "slp", "tlp", "slp-share")
	var shares []float64
	for _, p := range workloads.Catalog() {
		rep, err := RunOne(p, fig9bPrefetcher, opts)
		if err != nil {
			return 0, err
		}
		slp := rep.UsefulByOrigin["slp"]
		tlp := rep.UsefulByOrigin["tlp"]
		share := 0.0
		if slp+tlp > 0 {
			share = float64(slp) / float64(slp+tlp)
		}
		shares = append(shares, share)
		fmt.Fprintf(w, "%-6s %12d %12d %11.1f%%\n", p.Abbr, slp, tlp, 100*share)
	}
	slpShareAvg = metrics.Mean(shares)
	fmt.Fprintf(w, "average SLP share of useful prefetches: %.1f%%   (paper: ~80%%)\n", 100*slpShareAvg)
	return slpShareAvg, nil
}

// Fig10 prints per-app memory-system energy overhead vs no prefetcher
// (paper: Planaria +0.5 % avg, BOP +13.5 %, SPP +9.7 %).
func Fig10(w io.Writer, reps map[string]map[string]metrics.Report) (plAvg, bopAvg, sppAvg float64) {
	header(w, "Figure 10: memory power overhead vs none", []string{"bop", "spp", "planaria"})
	var pl, bo, sp []float64
	for _, a := range appOrder(reps) {
		base := reps[a]["none"].Energy.Total()
		ovh := func(pf string) float64 {
			return metrics.Improvement(base, reps[a][pf].Energy.Total())
		}
		fmt.Fprintf(w, "%-6s%11.1f%%%11.1f%%%11.1f%%\n", a, 100*ovh("bop"), 100*ovh("spp"), 100*ovh("planaria"))
		bo = append(bo, ovh("bop"))
		sp = append(sp, ovh("spp"))
		pl = append(pl, ovh("planaria"))
	}
	plAvg, bopAvg, sppAvg = metrics.Mean(pl), metrics.Mean(bo), metrics.Mean(sp)
	fmt.Fprintf(w, "average: BOP %+.1f%%, SPP %+.1f%%, Planaria %+.1f%%   (paper: +13.5%%, +9.7%%, +0.5%%)\n",
		100*bopAvg, 100*sppAvg, 100*plAvg)
	return plAvg, bopAvg, sppAvg
}

// TableIPC prints the estimated IPC uplift (paper: +28.9 % vs none,
// +21.9 % vs BOP, +15.3 % vs SPP).
func TableIPC(w io.Writer, reps map[string]map[string]metrics.Report) (vsNone, vsBOP, vsSPP float64) {
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
	vsNone, vsBOP, vsSPP = metrics.Mean(uNone), metrics.Mean(uBOP), metrics.Mean(uSPP)
	fmt.Fprintf(w, "Planaria IPC uplift: %.1f%% vs none, %.1f%% vs BOP, %.1f%% vs SPP\n",
		100*vsNone, 100*vsBOP, 100*vsSPP)
	fmt.Fprintf(w, "(paper: 28.9%%, 21.9%%, 15.3%%)\n")
	return vsNone, vsBOP, vsSPP
}

// TableTraffic prints DRAM traffic overhead vs none (paper: SPP +15.9 %,
// BOP +23.4 %).
func TableTraffic(w io.Writer, reps map[string]map[string]metrics.Report) (bopAvg, sppAvg, plAvg float64) {
	header(w, "Traffic overhead vs none", []string{"bop", "spp", "planaria"})
	var bo, sp, pl []float64
	for _, a := range appOrder(reps) {
		base := float64(reps[a]["none"].Traffic())
		ovh := func(pf string) float64 {
			return metrics.Improvement(base, float64(reps[a][pf].Traffic()))
		}
		fmt.Fprintf(w, "%-6s%11.1f%%%11.1f%%%11.1f%%\n", a, 100*ovh("bop"), 100*ovh("spp"), 100*ovh("planaria"))
		bo = append(bo, ovh("bop"))
		sp = append(sp, ovh("spp"))
		pl = append(pl, ovh("planaria"))
	}
	bopAvg, sppAvg, plAvg = metrics.Mean(bo), metrics.Mean(sp), metrics.Mean(pl)
	fmt.Fprintf(w, "average: BOP %+.1f%%, SPP %+.1f%%, Planaria %+.1f%%   (paper: +23.4%%, +15.9%%, small)\n",
		100*bopAvg, 100*sppAvg, 100*plAvg)
	return bopAvg, sppAvg, plAvg
}

// TableStorage prints the prefetcher metadata budget (paper: 345.2 KB).
func TableStorage(w io.Writer) (float64, error) {
	return tableStorage(w, "planaria")
}

func tableStorage(w io.Writer, name string) (float64, error) {
	factory, err := sim.NamedPrefetcher(name)
	if err != nil {
		// A registry rename must surface as an error, not as a nil factory
		// dereference on the next line.
		return 0, fmt.Errorf("storage table: %w", err)
	}
	bits := 0
	for ch := 0; ch < 4; ch++ {
		bits += factory(ch).StorageBits()
	}
	kb := float64(bits) / 8 / 1024
	fmt.Fprintf(w, "\n== Storage ==\nPlanaria metadata: %.1f KB across 4 channels (paper: 345.2 KB = 8.4%% of 4 MB SC)\n", kb)
	return kb, nil
}

// RunAll strings the full evaluation; used by cmd/experiments -run all. It
// returns the Figure 7 sweep reports so callers can derive artifacts from
// the same runs the tables printed.
func RunAll(w io.Writer, opts Options) (map[string]map[string]metrics.Report, error) {
	Fig4(w, opts)
	Fig5(w, opts)
	reps, err := Fig7(w, opts)
	if err != nil {
		return reps, err
	}
	Fig8(w, reps)
	// Every error path below returns reps, never nil: Fig7's sweep has
	// already completed by this point and discarding it would throw away
	// the partial results cmd/experiments writes artifacts from (the same
	// degrade-don't-discard contract Sweep itself keeps).
	if _, _, err := Fig9(w, opts); err != nil {
		return reps, err
	}
	if _, err := Fig9b(w, opts); err != nil {
		return reps, err
	}
	Fig10(w, reps)
	TableIPC(w, reps)
	TableTraffic(w, reps)
	if _, err := TableStorage(w); err != nil {
		return reps, err
	}
	return reps, nil
}

// Fig2 extracts the snapshot timeline of a hot page (rendered as text).
func Fig2(w io.Writer, opts Options) int {
	p := workloads.Catalog()[0]
	t := p.Generate(opts.Requests)
	hot := analysis.HottestPages(t, 1)
	if len(hot) == 0 {
		return 0
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
	return len(pts)
}
