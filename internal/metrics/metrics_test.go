package metrics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/prefetch"
)

func sampleReport() Report {
	return Report{
		Workload:     "CFM",
		Prefetcher:   "planaria",
		DemandReads:  1000,
		DemandWrites: 200,
		Cache: cache.Stats{
			DemandAccesses: 1200, DemandHits: 600, DemandMisses: 600,
			PrefetchFills: 100, UsefulPrefetches: 80, WastedPrefetches: 10,
		},
		DRAM:             dram.Stats{Reads: 700, Writes: 100, PrefReads: 100},
		Prefetch:         prefetch.Stats{Issued: 100, Candidates: 150, Filtered: 40},
		LatePrefetchHits: 20,
		SCHitLatency:     30,
		AMAT:             95,
		Cycles:           100000,
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := sampleReport()
	if r.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", r.HitRate())
	}
	if r.Traffic() != 800 {
		t.Errorf("Traffic = %v", r.Traffic())
	}
	if r.Accuracy() != 0.8 {
		t.Errorf("Accuracy = %v", r.Accuracy())
	}
	wantCov := (80.0 + 20.0) / (600.0 + 80.0)
	if math.Abs(r.Coverage()-wantCov) > 1e-12 {
		t.Errorf("Coverage = %v, want %v", r.Coverage(), wantCov)
	}
	s := r.String()
	for _, frag := range []string{"CFM", "planaria", "AMAT"} {
		if !strings.Contains(s, frag) {
			t.Errorf("summary missing %q:\n%s", frag, s)
		}
	}
}

func TestZeroReportSafe(t *testing.T) {
	var r Report
	if r.HitRate() != 0 || r.Accuracy() != 0 || r.Coverage() != 0 {
		t.Fatal("zero report produced NaN-adjacent metrics")
	}
	if r.PowerMW(1600) != 0 {
		t.Fatal("zero report power")
	}
}

func TestIPCModelMonotone(t *testing.T) {
	m := DefaultIPCModel()
	if m.IPC(50) <= m.IPC(100) {
		t.Fatal("IPC not decreasing in AMAT")
	}
	if m.IPC(0) <= 0 {
		t.Fatal("IPC at zero AMAT should be positive")
	}
	bad := IPCModel{CoreCyclesPerAccess: -5, InstrPerAccess: 1}
	if bad.IPC(5) != 0 {
		t.Fatal("non-positive denominator must yield 0")
	}
}

func TestIPCModelMatchesPaperCoupling(t *testing.T) {
	// The paper couples AMAT −24.3 % to IPC +28.9 %. With the default
	// model, a 24.3 % AMAT cut from a typical baseline must give an IPC
	// uplift in the 25–33 % band.
	m := DefaultIPCModel()
	base := 120.0
	uplift := Improvement(m.IPC(base), m.IPC(base*(1-0.243)))
	if uplift < 0.25 || uplift > 0.33 {
		t.Fatalf("uplift %v outside the paper-consistent band", uplift)
	}
}

func TestImprovementReduction(t *testing.T) {
	if Improvement(100, 120) != 0.2 {
		t.Fatal("Improvement")
	}
	if Reduction(100, 80) != 0.2 {
		t.Fatal("Reduction")
	}
	if Improvement(0, 5) != 0 || Reduction(0, 5) != 0 {
		t.Fatal("zero base must yield 0")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty input")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean")
	}
}
