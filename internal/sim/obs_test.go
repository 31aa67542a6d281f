package sim

import (
	"context"
	"testing"

	"repro/internal/workloads"
)

// sampledConfig returns the default engine config with Planaria and a
// request-based sampling cadence.
func sampledConfig(every uint64) Config {
	cfg := DefaultConfig()
	factory, _ := NamedPrefetcher("planaria")
	cfg.NewPrefetcher = factory
	cfg.SampleEvery = every
	return cfg
}

// TestSeriesNilWhenDisabled: without a cadence the report must carry no
// series (the zero-cost-when-disabled contract).
func TestSeriesNilWhenDisabled(t *testing.T) {
	p := workloads.Catalog()[0]
	eng := New(DefaultConfig())
	rep, err := eng.RunStream(p.Generate(20_000).Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series != nil {
		t.Fatal("sampling disabled but report carries a time series")
	}
}

// TestSeriesTotalsMatchReport is the core observability invariant: the sum
// of all window deltas equals the end-of-run aggregates exactly, for every
// counter the sampler tracks.
func TestSeriesTotalsMatchReport(t *testing.T) {
	p := workloads.Catalog()[0]
	eng := New(sampledConfig(5_000))
	rep, err := eng.RunStream(p.Generate(60_000).Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil {
		t.Fatal("sampling enabled but no series")
	}
	if got := len(rep.Series.Samples); got < 10 {
		t.Fatalf("got %d samples for 60k requests at 5k cadence, want >= 10", got)
	}
	tot := rep.Series.Totals()
	checks := []struct {
		name      string
		got, want uint64
	}{
		{"requests", tot.Requests, rep.DemandReads + rep.DemandWrites},
		{"demand_reads", tot.DemandReads, rep.DemandReads},
		{"demand_writes", tot.DemandWrites, rep.DemandWrites},
		{"demand_hits", tot.DemandHits, rep.Cache.DemandHits},
		{"demand_misses", tot.DemandMisses, rep.Cache.DemandMisses},
		{"prefetch_fills", tot.PrefetchFills, rep.Cache.PrefetchFills},
		{"useful_prefetches", tot.UsefulPrefetches, rep.Cache.UsefulPrefetches},
		{"late_prefetch_hits", tot.LatePrefetchHits, rep.LatePrefetchHits},
		{"issued", tot.Issued, rep.Prefetch.Issued},
		{"dram_reads", tot.DRAMReads, rep.DRAM.Reads},
		{"dram_writes", tot.DRAMWrites, rep.DRAM.Writes},
		{"pref_reads", tot.PrefReads, rep.DRAM.PrefReads},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("series %s total = %d, report says %d", c.name, c.got, c.want)
		}
	}
	// AMAT from the series must reproduce the report's AMAT exactly
	// (same numerator and denominator, same division).
	if amat := float64(tot.ReadLatency) / float64(tot.DemandReads); amat != rep.AMAT {
		t.Errorf("series AMAT %v != report AMAT %v", amat, rep.AMAT)
	}
	// Per-origin attribution sums must match too.
	for o, n := range rep.UsefulByOrigin {
		if tot.UsefulByOrigin[o] != n {
			t.Errorf("series origin %q total = %d, report says %d", o, tot.UsefulByOrigin[o], n)
		}
	}
}

// TestSeriesWarmupReset: after a warmed-up Run, the series must cover only the
// measured region — no warmup-era samples, first window starting at the
// reset cycle, totals matching the (post-warmup) report.
func TestSeriesWarmupReset(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(40_000)
	eng := New(sampledConfig(2_000))
	rep, err := eng.Run(context.Background(), tr.Stream(), p.Abbr, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil || len(rep.Series.Samples) == 0 {
		t.Fatal("no series after warmup run")
	}
	tot := rep.Series.Totals()
	if tot.DemandReads != rep.DemandReads || tot.DRAMReads != rep.DRAM.Reads {
		t.Fatalf("post-warmup series totals (%d reads, %d dram) do not match report (%d, %d)",
			tot.DemandReads, tot.DRAMReads, rep.DemandReads, rep.DRAM.Reads)
	}
	// The measured region is 75 % of the trace; the series must not
	// contain anywhere near the full-trace request count.
	if tot.Requests >= uint64(len(tr)) {
		t.Fatalf("series covers %d requests, warmup window was not discarded (trace %d)",
			tot.Requests, len(tr))
	}
	// The first window must start where the warmup ended, not at cycle 0.
	warmupEnd := tr[len(tr)/4-1].Cycle
	if first := rep.Series.Samples[0].StartCycle; first+1 < warmupEnd {
		t.Fatalf("first window starts at cycle %d, before the warmup boundary %d", first, warmupEnd)
	}
}

// TestSeriesCycleCadence exercises the cycle-based window trigger.
func TestSeriesCycleCadence(t *testing.T) {
	p := workloads.Catalog()[0]
	cfg := DefaultConfig()
	cfg.SampleEveryCycles = 50_000
	eng := New(cfg)
	tr := p.Generate(30_000)
	rep, err := eng.RunStream(tr.Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil || len(rep.Series.Samples) < 2 {
		t.Fatalf("cycle cadence produced %v", rep.Series)
	}
	// Every full window must span at least the cadence (the final flush
	// window may be shorter).
	for i, s := range rep.Series.Samples[:len(rep.Series.Samples)-1] {
		if s.EndCycle-s.StartCycle < 50_000 {
			t.Fatalf("window %d spans %d cycles, cadence is 50000", i, s.EndCycle-s.StartCycle)
		}
	}
}
