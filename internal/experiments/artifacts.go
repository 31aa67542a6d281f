package experiments

import (
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
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
