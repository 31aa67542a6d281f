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
	"io"
	"testing"

	"repro/internal/experiments"
)

// benchRequests is the per-app trace length used by the benchmark harness.
const benchRequests = 150_000

func benchOpts() experiments.Options {
	return experiments.Options{Requests: benchRequests, Warmup: 0.2}
}

// BenchmarkFig2Snapshot regenerates Figure 2: the access timeline of a hot
// page, showing footprint visits with non-deterministic intra-visit order.
func BenchmarkFig2Snapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := experiments.Fig2(io.Discard, benchOpts())
		b.ReportMetric(float64(n), "accesses")
	}
}

// BenchmarkFig4OverlapRate regenerates Figure 4: mean footprint overlap rate
// across program phases (paper: > 80 %).
func BenchmarkFig4OverlapRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avg := experiments.Fig4(io.Discard, benchOpts())
		b.ReportMetric(100*avg, "overlap_%")
	}
}

// BenchmarkFig5Neighbors regenerates Figure 5: the learnable-neighbour
// proportion at distance thresholds 4 and 64 (paper: 26.95 % / 39.26 %).
func BenchmarkFig5Neighbors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		at4, at64 := experiments.Fig5(io.Discard, benchOpts())
		b.ReportMetric(100*at4, "neighbors@4_%")
		b.ReportMetric(100*at64, "neighbors@64_%")
	}
}

// BenchmarkFig7HitRate regenerates Figure 7: SC hit rate per prefetcher.
func BenchmarkFig7HitRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
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
		reps, err := experiments.Fig7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		vsNone, vsBOP, vsSPP := experiments.Fig8(io.Discard, reps)
		b.ReportMetric(100*vsNone, "amat_vs_none_%")
		b.ReportMetric(100*vsBOP, "amat_vs_bop_%")
		b.ReportMetric(100*vsSPP, "amat_vs_spp_%")
	}
}

// BenchmarkFig9Breakdown regenerates Figure 9: SLP's share of the composite
// improvement (paper: ≈ 80 % overall, TLP dominant on Fort).
func BenchmarkFig9Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		avg, perApp, err := experiments.Fig9(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*avg, "slp_share_%")
		b.ReportMetric(100*perApp["Fort"], "slp_share_fort_%")
	}
}

// BenchmarkFig10Power regenerates Figure 10: memory-system power overhead
// per prefetcher (paper: BOP +13.5 %, SPP +9.7 %, Planaria +0.5 %).
func BenchmarkFig10Power(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		pl, bop, spp := experiments.Fig10(io.Discard, reps)
		b.ReportMetric(100*bop, "power_bop_%")
		b.ReportMetric(100*spp, "power_spp_%")
		b.ReportMetric(100*pl, "power_planaria_%")
	}
}

// BenchmarkTableIPC regenerates the abstract's IPC uplifts (paper:
// +28.9/+21.9/+15.3 % vs none/BOP/SPP).
func BenchmarkTableIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		vsNone, vsBOP, vsSPP := experiments.TableIPC(io.Discard, reps)
		b.ReportMetric(100*vsNone, "ipc_vs_none_%")
		b.ReportMetric(100*vsBOP, "ipc_vs_bop_%")
		b.ReportMetric(100*vsSPP, "ipc_vs_spp_%")
	}
}

// BenchmarkTableTraffic regenerates the Section 1 traffic-overhead table
// (paper: BOP +23.4 %, SPP +15.9 %).
func BenchmarkTableTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reps, err := experiments.Fig7(io.Discard, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		bop, spp, pl := experiments.TableTraffic(io.Discard, reps)
		b.ReportMetric(100*bop, "traffic_bop_%")
		b.ReportMetric(100*spp, "traffic_spp_%")
		b.ReportMetric(100*pl, "traffic_planaria_%")
	}
}

// BenchmarkTableStorage regenerates the Section 6 storage figure (paper:
// 345.2 KB ≈ 8.4 % of the 4 MB SC).
func BenchmarkTableStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		kb, err := experiments.TableStorage(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(kb, "storage_KB")
	}
}

// BenchmarkAblationCoordinator compares decoupled vs serial vs parallel
// coordination (the Section 2 design claim).
func BenchmarkAblationCoordinator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCoordinator(io.Discard, benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDistance sweeps the TLP distance threshold.
func BenchmarkAblationDistance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationDistance(io.Discard, benchOpts(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPTSize sweeps the SLP pattern-table capacity.
func BenchmarkAblationPTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPTSize(io.Discard, benchOpts(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheStudy regenerates the Section 1 claim: replacement policies
// and extra capacity do not rescue the SC, while prefetching on the
// baseline cache does.
func BenchmarkCacheStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		amats, err := experiments.CacheStudy(io.Discard, benchOpts(), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(amats["4MB lru"], "amat_4MB_lru")
		b.ReportMetric(amats["8MB drrip"], "amat_8MB_drrip")
		b.ReportMetric(amats["4MB+planaria"], "amat_4MB_planaria")
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
