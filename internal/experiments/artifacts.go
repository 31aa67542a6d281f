package experiments

import (
	"path/filepath"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Cells flattens a sweep result into sorted (app, prefetcher) cells: apps
// in Table 2 order (unknown apps sorted last), prefetchers sorted by name
// within each app. The order is deterministic across runs so JSON artifacts
// built from it are diff-stable.
func Cells(reps map[string]map[string]metrics.Report) []obs.Cell {
	var cells []obs.Cell
	for _, app := range appOrder(reps) {
		for _, pf := range prefetcherOrder(reps[app]) {
			cells = append(cells, obs.Cell{
				App:        app,
				Prefetcher: pf,
				Report:     reps[app][pf],
			})
		}
	}
	return cells
}

// prefetcherOrder returns the sorted prefetcher keys of one sweep row.
func prefetcherOrder(row map[string]metrics.Report) []string {
	out := make([]string, 0, len(row))
	for pf := range row {
		out = append(out, pf)
	}
	sort.Strings(out)
	return out
}

// sweepManifest builds the shared manifest for artifacts produced from one
// sweep (git describe and environment captured once).
func sweepManifest(opts Options) obs.Manifest {
	man := obs.NewManifest("experiments")
	man.Requests = opts.Requests
	man.Warmup = sim.ClampWarmup(opts.Warmup)
	man.SampleEvery = opts.SampleEvery
	return man
}

// writeCellArtifacts writes one JSON run artifact per sweep cell into dir,
// named "<app>_<prefetcher>.json", in deterministic order.
func writeCellArtifacts(dir string, reps map[string]map[string]metrics.Report, opts Options) error {
	man := sweepManifest(opts)
	for _, c := range Cells(reps) {
		m := man
		m.Workload, m.Prefetcher = c.App, c.Prefetcher
		rep := c.Report
		art := obs.Artifact{Manifest: m, Report: &rep}
		path := filepath.Join(dir, c.App+"_"+c.Prefetcher+".json")
		if err := obs.WriteFile(path, art); err != nil {
			return err
		}
	}
	return nil
}
