package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sweepfarm"
)

// csvTable prints the csv id's table: one row per EvalSet cell.
func csvTable(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
	return nil, writeCSV(w, res.ReportGrid(""))
}

// writeCSV emits one row per (app, prefetcher) run with every metric the
// figures draw on, for external plotting.
func writeCSV(w io.Writer, reps reports) error {
	cw := csv.NewWriter(w)
	header := []string{
		"app", "prefetcher", "demand_reads", "demand_writes",
		"hit_rate", "amat_cycles", "ipc_est", "coverage", "accuracy",
		"dram_reads", "dram_writes", "prefetch_reads", "activates",
		"row_hits", "refreshes", "energy_uj", "storage_kb", "cycles",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	model := metrics.DefaultIPCModel()
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	// Sorted app and prefetcher order keeps the CSV diff-stable across
	// runs (map iteration order would shuffle rows otherwise).
	for _, app := range appOrder(reps) {
		for _, pf := range prefetcherOrder(reps[app]) {
			rep := reps[app][pf]
			row := []string{
				app, pf, u(rep.DemandReads), u(rep.DemandWrites),
				f(rep.HitRate()), f(rep.AMAT), f(model.IPC(rep.AMAT)),
				f(rep.Coverage()), f(rep.Accuracy()),
				u(rep.DRAM.Reads), u(rep.DRAM.Writes), u(rep.DRAM.PrefReads),
				u(rep.DRAM.Activates), u(rep.DRAM.RowHits), u(rep.DRAM.Refreshes),
				f(rep.Energy.Total() / 1e6), f(float64(rep.StorageBits) / 8 / 1024),
				u(rep.Cycles),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	return nil
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
