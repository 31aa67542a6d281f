package planaria

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (DESIGN.md, experiment index). Each benchmark runs the
// corresponding experiment end to end and reports the headline values as
// custom metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Benchmarks use a reduced trace length per
// app (benchRequests) so the full suite completes in minutes; run
// cmd/experiments for the full-scale numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"io"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// benchRequests is the per-app trace length used by the benchmark harness.
const benchRequests = 150_000

// runExperiment runs the cmd/experiments -run id at the benchmark scale
// through the experiments entry point.
func runExperiment(b *testing.B, id string) experiments.Outcome {
	b.Helper()
	opts := experiments.Options{Requests: benchRequests, Warmup: 0.2}
	e, err := experiments.Lookup(id, opts)
	if err != nil {
		b.Fatal(err)
	}
	out, err := experiments.Run(context.Background(), io.Discard, e, opts)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// reportSummary reports the named summary values of one experiment under
// their units; a value whose unit ends in "_%" is a fraction, reported
// as a percentage.
func reportSummary(b *testing.B, out experiments.Outcome, units map[string]string) {
	for key, unit := range units {
		v := out.Summary[key]
		if strings.HasSuffix(unit, "_%") {
			v *= 100
		}
		b.ReportMetric(v, unit)
	}
}

// BenchmarkFig2Snapshot regenerates Figure 2: the access timeline of a hot
// page, showing footprint visits with non-deterministic intra-visit order.
func BenchmarkFig2Snapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig2"), map[string]string{"fig2_timeline_accesses": "accesses"})
	}
}

// BenchmarkFig4OverlapRate regenerates Figure 4: mean footprint overlap rate
// across program phases (paper: > 80 %).
func BenchmarkFig4OverlapRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig4"), map[string]string{"fig4_overlap_rate_avg": "overlap_%"})
	}
}

// BenchmarkFig5Neighbors regenerates Figure 5: the learnable-neighbour
// proportion at distance thresholds 4 and 64 (paper: 26.95 % / 39.26 %).
func BenchmarkFig5Neighbors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig5"), map[string]string{
			"fig5_neighbors_at4": "neighbors@4_%", "fig5_neighbors_at64": "neighbors@64_%"})
	}
}

// BenchmarkFig7HitRate regenerates Figure 7: SC hit rate per prefetcher.
func BenchmarkFig7HitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps := runExperiment(b, "fig7").Farm.ReportGrid("")
		var none, pl float64
		for _, m := range reps {
			none += m["none"].HitRate()
			pl += m["planaria"].HitRate()
		}
		n := float64(len(reps))
		b.ReportMetric(100*none/n, "hit_none_%")
		b.ReportMetric(100*pl/n, "hit_planaria_%")
	}
}

// BenchmarkFig8AMAT regenerates Figure 8 and the Section 1 AMAT table:
// Planaria's AMAT reduction vs none/BOP/SPP (paper: 24.3/21.3/15.1 %).
func BenchmarkFig8AMAT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig8"), map[string]string{
			"fig8_amat_reduction_vs_none": "amat_vs_none_%",
			"fig8_amat_reduction_vs_bop":  "amat_vs_bop_%",
			"fig8_amat_reduction_vs_spp":  "amat_vs_spp_%",
		})
	}
}

// BenchmarkFig9Breakdown regenerates Figure 9: SLP's share of the composite
// improvement (paper: ≈ 80 % overall, TLP dominant on Fort).
func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig9"), map[string]string{
			"fig9_slp_share_avg": "slp_share_%", "fig9_slp_share:Fort": "slp_share_fort_%"})
	}
}

// BenchmarkFig10Power regenerates Figure 10: memory-system power overhead
// per prefetcher (paper: BOP +13.5 %, SPP +9.7 %, Planaria +0.5 %).
func BenchmarkFig10Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "fig10"), map[string]string{
			"power_overhead_bop":      "power_bop_%",
			"power_overhead_spp":      "power_spp_%",
			"power_overhead_planaria": "power_planaria_%",
		})
	}
}

// BenchmarkTableIPC regenerates the abstract's IPC uplifts (paper:
// +28.9/+21.9/+15.3 % vs none/BOP/SPP).
func BenchmarkTableIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "tab-ipc"), map[string]string{
			"ipc_uplift_vs_none": "ipc_vs_none_%",
			"ipc_uplift_vs_bop":  "ipc_vs_bop_%",
			"ipc_uplift_vs_spp":  "ipc_vs_spp_%",
		})
	}
}

// BenchmarkTableTraffic regenerates the Section 1 traffic-overhead table
// (paper: BOP +23.4 %, SPP +15.9 %).
func BenchmarkTableTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "tab-traffic"), map[string]string{
			"traffic_overhead_bop":      "traffic_bop_%",
			"traffic_overhead_spp":      "traffic_spp_%",
			"traffic_overhead_planaria": "traffic_planaria_%",
		})
	}
}

// BenchmarkTableStorage regenerates the Section 6 storage figure (paper:
// 345.2 KB ≈ 8.4 % of the 4 MB SC).
func BenchmarkTableStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "tab-storage"), map[string]string{"planaria_storage_kb": "storage_KB"})
	}
}

// BenchmarkAblationCoordinator compares decoupled vs serial vs parallel
// coordination (the Section 2 design claim).
func BenchmarkAblationCoordinator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment(b, "abl-coord")
	}
}

// BenchmarkAblationDistance sweeps the TLP distance threshold.
func BenchmarkAblationDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment(b, "abl-dist")
	}
}

// BenchmarkAblationPTSize sweeps the SLP pattern-table capacity.
func BenchmarkAblationPTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runExperiment(b, "abl-pt")
	}
}

// BenchmarkCacheStudy regenerates the Section 1 claim: replacement policies
// and extra capacity do not rescue the SC, while prefetching on the
// baseline cache does.
func BenchmarkCacheStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSummary(b, runExperiment(b, "cache-study"), map[string]string{
			"cache_study_amat:4MB lru":      "amat_4MB_lru",
			"cache_study_amat:8MB drrip":    "amat_8MB_drrip",
			"cache_study_amat:4MB+planaria": "amat_4MB_planaria",
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulator speed (requests per
// second) under the full Planaria configuration — the engineering metric for
// the simulator substrate itself.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := GenerateTrace("CFM", 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewSimulator(Options{Prefetcher: "planaria"})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "req/s")
}
