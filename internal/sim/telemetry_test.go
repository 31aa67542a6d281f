package sim

// Tests for the live-telemetry wiring: the disabled path must be invisible
// (bit-identical reports), and the enabled path's counters must reconcile
// exactly with the report aggregates they mirror.

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestTelemetryTransparency pins the zero-cost-when-disabled contract at the
// report level: a run with telemetry enabled produces exactly the same
// report as the plain run, except for the attached summary. Any simulation
// state leaking from the instrument wiring (fill stamps, latency recording)
// would break the byte comparison.
func TestTelemetryTransparency(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(60_000)

	cfg := DefaultConfig()
	plain, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("telemetry summary present on a telemetry-off run")
	}

	cfg = DefaultConfig()
	cfg.Telemetry = telemetry.NewRegistry()
	instrumented, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented.Telemetry == nil {
		t.Fatal("telemetry summary missing on a telemetry-on run")
	}

	instrumented.Telemetry = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(instrumented)
	if string(a) != string(b) {
		t.Errorf("instrumented report differs from plain beyond the summary:\nplain: %s\ninstr: %s", a, b)
	}
}

// TestTelemetryReconcilesWithReport runs warmup-free (telemetry covers the
// whole run, report aggregates the measured region — with no warmup the two
// regions coincide) and checks every mirrored counter agrees exactly, the
// summary is internally consistent, and a serial re-run lands on identical
// instrument values.
func TestTelemetryReconcilesWithReport(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(80_000)

	run := func(parallel bool) (*telemetry.Registry, metricsReport) {
		cfg := DefaultConfig()
		cfg.ParallelChannels = parallel
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		rep, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
		if err != nil {
			t.Fatal(err)
		}
		return reg, metricsReport{rep.DemandReads, rep.DemandWrites,
			rep.Cache.DemandHits, rep.Cache.DemandMisses, rep.Cache.UsefulPrefetches,
			rep.Prefetch.Issued, rep.LatePrefetchHits,
			rep.DRAM.RowHits, rep.DRAM.RowMisses, rep.DRAM.RowEmpty,
			rep.Telemetry}
	}
	reg, got := run(true)
	sum := got.summary
	if sum == nil {
		t.Fatal("no telemetry summary")
	}

	for _, c := range []struct {
		family string
		want   uint64
	}{
		{"planaria_demand_reads_total", got.demandReads},
		{"planaria_demand_writes_total", got.demandWrites},
		{"planaria_demand_hits_total", got.demandHits},
		{"planaria_demand_misses_total", got.demandMisses},
		{"planaria_prefetch_issued_total", got.prefIssued},
		{"planaria_prefetch_late_hits_total", got.lateHits},
		{"planaria_dram_row_hits_total", got.rowHits},
		{"planaria_dram_row_misses_total", got.rowMisses},
		{"planaria_dram_row_empty_total", got.rowEmpty},
	} {
		if v := sum.Counters[c.family]; v != c.want {
			t.Errorf("%s = %d, want %d (report aggregate)", c.family, v, c.want)
		}
	}
	// The run-progress series ride along in the summary.
	if r, x := sum.Counters[telemetry.MetricRunRecords], sum.Gauges[telemetry.MetricRunRecordsExpected]; r != 80_000 || x != 80_000 {
		t.Errorf("progress in summary: records %d, expected %d, want 80000 each", r, x)
	}

	// Every useful (non-late) prefetch has a first-use gap observation: the
	// engine stamps the fill cycle and the first demand hit reads it back.
	gap, ok := sum.Histograms["planaria_prefetch_first_use_gap_cycles"]
	if !ok || gap.Count != got.usefulPrefetches {
		t.Errorf("first-use gap count = %v (present %v), want %d useful prefetches", gap.Count, ok, got.usefulPrefetches)
	}
	// Every late hit has a wait observation.
	wait := sum.Histograms["planaria_prefetch_late_wait_cycles"]
	if wait.Count != got.lateHits {
		t.Errorf("late wait count = %d, want %d late hits", wait.Count, got.lateHits)
	}
	// Demand read latency: one observation per DRAM demand read service;
	// quantiles must be ordered and live-readable mid- or post-run.
	lat := sum.Histograms[telemetry.MetricDRAMDemandReadLatency]
	if lat.Count == 0 || !(lat.P50 <= lat.P90 && lat.P90 <= lat.P99) {
		t.Errorf("demand latency summary %+v not ordered", lat)
	}
	if v, ok := reg.Quantile(telemetry.MetricDRAMDemandReadLatency, 0.99); !ok || v != lat.P99 {
		t.Errorf("Quantile p99 = %v (%v), want summary's %v", v, ok, lat.P99)
	}

	// The whole registry must render as valid exposition text.
	var b strings.Builder
	if err := telemetry.WritePrometheus(&b, reg); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Errorf("post-run exposition invalid: %v", err)
	}

	// The simulation is deterministic and the instruments shard per unit, so
	// a serial run of the same trace must land on an identical summary.
	_, serial := run(false)
	sa, _ := json.Marshal(sum)
	sb, _ := json.Marshal(serial.summary)
	if string(sa) != string(sb) {
		t.Error("serial and parallel telemetry summaries differ")
	}
}

// metricsReport is the slice of report fields the telemetry counters mirror.
type metricsReport struct {
	demandReads, demandWrites    uint64
	demandHits, demandMisses     uint64
	usefulPrefetches             uint64
	prefIssued, lateHits         uint64
	rowHits, rowMisses, rowEmpty uint64
	summary                      *telemetry.Summary
}

// TestTelemetryWarmupCoverage pins the documented semantic difference: the
// report aggregates only the measured region, the instruments never reset,
// so with warmup the telemetry counters exceed the report's.
func TestTelemetryWarmupCoverage(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(60_000)
	cfg := DefaultConfig()
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	rep, err := New(cfg).Run(context.Background(), tr.Stream(), p.Abbr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	total := rep.Telemetry.Counters["planaria_demand_reads_total"]
	if total <= rep.DemandReads {
		t.Errorf("whole-run demand reads %d not above measured-region %d (warmup must stay counted)",
			total, rep.DemandReads)
	}
}

// TestEngineCountersProgress: both drivers advance the run-progress series
// to exactly the record count, sequential engines sharing one registry
// accumulate, and only sized streams declare expected records.
func TestEngineCountersProgress(t *testing.T) {
	p := workloads.Catalog()[0]
	const n = 20_000
	tr := p.Generate(n)
	var bin bytes.Buffer
	if err := trace.WriteAll(&bin, tr); err != nil {
		t.Fatal(err)
	}
	for _, par := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		records, expected := telemetry.RunProgress(reg)
		cfg := DefaultConfig()
		cfg.ParallelChannels = par
		cfg.Telemetry = reg
		if _, err := New(cfg).RunStream(tr.Stream(), p.Abbr); err != nil {
			t.Fatal(err)
		}
		if got := records.Value(); got != n {
			t.Fatalf("parallel=%v: %d records, want %d", par, got, n)
		}
		// A second engine on the same registry accumulates.
		if _, err := New(cfg).RunStream(tr.Stream(), p.Abbr); err != nil {
			t.Fatal(err)
		}
		if got, want := records.Value(), uint64(2*n); got != want {
			t.Fatalf("parallel=%v: sequential engines reached %d records, want %d", par, got, want)
		}
		if got := expected.Value(); got != 2*n {
			t.Fatalf("parallel=%v: expected %d records, want %d", par, got, 2*n)
		}
		// An unsized stream still counts records but declares none.
		unsized := trace.NewReader(bytes.NewReader(bin.Bytes())).Stream()
		if _, err := New(cfg).RunStream(unsized, p.Abbr); err != nil {
			t.Fatal(err)
		}
		if got, want := records.Value(), uint64(3*n); got != want {
			t.Fatalf("parallel=%v: unsized run left %d records, want %d", par, got, want)
		}
		if got := expected.Value(); got != 2*n {
			t.Fatalf("parallel=%v: unsized run moved expected to %d, want %d", par, got, 2*n)
		}
	}
}
