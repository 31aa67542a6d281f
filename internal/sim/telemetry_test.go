package sim

// Tests for the live-telemetry wiring: the disabled path must be invisible
// (bit-identical reports), and the enabled path's counters, published from
// the units' own counts, must reconcile exactly with the report aggregates
// and keep up with the run while it is in flight.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestTelemetryTransparency pins the zero-cost-when-disabled contract at the
// report level: a run with telemetry enabled produces exactly the same
// report as the plain run, except for the attached summary. Any simulation
// state leaking from the instrument wiring (fill stamps, latency recording,
// publication) would break the byte comparison. The tournament prefetches,
// so fills are stamped, and it carries the per-component series.
func TestTelemetryTransparency(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(60_000)

	cfg := DefaultConfig()
	cfg.NewPrefetcher = TournamentPrefetcher()
	plain, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("telemetry summary present on a telemetry-off run")
	}

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
// regions coincide) and checks every published counter agrees exactly, the
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

// metricsReport is the slice of report fields the telemetry counters publish.
type metricsReport struct {
	demandReads, demandWrites    uint64
	demandHits, demandMisses     uint64
	usefulPrefetches             uint64
	prefIssued, lateHits         uint64
	rowHits, rowMisses, rowEmpty uint64
	summary                      *telemetry.Summary
}

// TestTournamentTelemetry: a tournament's per-component series are published
// from the tournament itself, and every driver publishes the same counts. On
// a warmed run through Run inline, Run on channel workers and a Step loop
// (which publishes in ResetStats and Finish only), each {channel, component}
// wins counter equals that channel's IssuesByComponent (ResetStats resets
// neither), each score gauge equals the selector's final score, and the
// summaries agree but for the run-progress series, which Step leaves alone.
func TestTournamentTelemetry(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(60_000)
	var first []byte
	for _, side := range []string{"inline", "workers", "step"} {
		cfg := DefaultConfig()
		cfg.NewPrefetcher = TournamentPrefetcher()
		cfg.ParallelChannels = side == "workers"
		cfg.Telemetry = telemetry.NewRegistry()
		eng := New(cfg)
		var rep metrics.Report
		var err error
		if side == "step" {
			rep, _, err = stepLoop(eng, tr, p.Abbr, 0.3)
		} else {
			rep, err = eng.Run(context.Background(), tr.Stream(), p.Abbr, 0.3)
		}
		if err != nil {
			t.Fatal(err)
		}
		sum := rep.Telemetry
		var total uint64
		for ch := 0; ch < addr.Channels; ch++ {
			tour := eng.Channel(ch).(*prefetch.Tournament)
			issues := tour.IssuesByComponent()
			for i, c := range tour.Components() {
				key := fmt.Sprintf(`{channel="%d",component="%s"}`, ch, c.Name())
				if got, ok := sum.Counters["planaria_tournament_wins_total"+key]; !ok || got != issues[c.Name()] {
					t.Errorf("%s: wins%s = %d (present %v), want IssuesByComponent %d",
						side, key, got, ok, issues[c.Name()])
				}
				if got, ok := sum.Gauges["planaria_tournament_score"+key]; !ok || got != int64(tour.Meta().Score(i)) {
					t.Errorf("%s: score%s = %d (present %v), want Meta().Score %d",
						side, key, got, ok, tour.Meta().Score(i))
				}
				total += issues[c.Name()]
			}
		}
		if total == 0 {
			t.Fatalf("%s: no tournament wins; the run checks nothing", side)
		}
		if got := sum.Counters["planaria_tournament_wins_total"]; got != total {
			t.Errorf("%s: wins total %d, want %d", side, got, total)
		}
		delete(sum.Counters, telemetry.MetricRunRecords)
		delete(sum.Gauges, telemetry.MetricRunRecordsExpected)
		js, _ := json.Marshal(sum)
		if first == nil {
			first = js
		} else if !bytes.Equal(js, first) {
			t.Errorf("%s: telemetry summary differs from the inline run's:\ninline: %s\n%s: %s", side, first, side, js)
		}
	}
}

// scrapingStream delivers its stream chunk by chunk and, before each chunk,
// hands check the demand accesses published to reg so far and the records
// it has delivered.
type scrapingStream struct {
	trace.Stream
	reg       *telemetry.Registry
	delivered uint64
	check     func(published, delivered uint64)
}

func (s *scrapingStream) NextChunk(dst []trace.Record) int {
	s.check(publishedDemand(s.reg), s.delivered)
	n := trace.ReadChunk(s.Stream, dst)
	s.delivered += uint64(n)
	return n
}

// publishedDemand is the demand reads plus writes reg holds.
func publishedDemand(reg *telemetry.Registry) uint64 {
	c := reg.Summary().Counters
	return c["planaria_demand_reads_total"] + c["planaria_demand_writes_total"]
}

// TestTelemetryPublishedMidRun: the counters are published while the run is
// in flight, not only when it finishes. Between chunks, the published demand
// accesses never exceed the records delivered, and trail them by no more
// than the records the driver can hold unstepped: a partial parcel per
// channel inline, the shared parcel budget (plus a chunk of slack) with
// channel workers. A warmup-free run ends with the report's counts.
func TestTelemetryPublishedMidRun(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(300_000)
	for _, parallel := range []bool{false, true} {
		bound := uint64(addr.Channels * trace.ChunkSize)
		if parallel {
			bound = uint64((parcelBudget(addr.Channels) + 1) * trace.ChunkSize)
		}
		reg := telemetry.NewRegistry()
		var checked uint64 // the most records delivered at a check
		s := &scrapingStream{Stream: tr.Stream(), reg: reg, check: func(published, delivered uint64) {
			if published > delivered || delivered-published > bound {
				t.Errorf("parallel=%v: %d demand accesses published after %d records delivered (may trail by %d)",
					parallel, published, delivered, bound)
			}
			checked = max(checked, delivered)
		}}
		cfg := DefaultConfig()
		cfg.ParallelChannels = parallel
		cfg.Telemetry = reg
		rep, err := New(cfg).RunStream(s, p.Abbr)
		if err != nil {
			t.Fatal(err)
		}
		if checked <= bound {
			t.Fatalf("parallel=%v: last check at %d records, within the %d-record bound; the run checks nothing",
				parallel, checked, bound)
		}
		if got, want := publishedDemand(reg), rep.DemandReads+rep.DemandWrites; got != want {
			t.Errorf("parallel=%v: %d demand accesses published at the end, report has %d", parallel, got, want)
		}
	}
}

// TestPublishAllocationFree: publishing a warm unit's counts, a
// tournament's series included, allocates nothing, so stepping a parcel
// stays allocation-free with telemetry on. The benchmark pins cannot show
// this: EngineStepTelemetry's allocs/op pin has room for an allocation per
// parcel.
func TestPublishAllocationFree(t *testing.T) {
	p := workloads.Catalog()[0]
	cfg := DefaultConfig()
	cfg.NewPrefetcher = TournamentPrefetcher()
	cfg.Telemetry = telemetry.NewRegistry()
	eng := New(cfg)
	for _, rec := range p.Generate(20_000) {
		if err := eng.Step(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, cs := range eng.units {
		if avg := testing.AllocsPerRun(100, cs.publish); avg != 0 {
			t.Errorf("publish allocates %.2f times per call, want 0", avg)
		}
	}
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
