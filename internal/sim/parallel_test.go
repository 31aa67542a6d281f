package sim

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runBoth drives the same trace through a serial and a parallel engine
// built from otherwise identical configurations and returns both reports.
func runBoth(t *testing.T, pf string, tr trace.Trace, name string, sampleEvery, sampleCycles uint64, warmup float64) (serial, parallel metrics.Report) {
	t.Helper()
	run := func(par bool) metrics.Report {
		factory, err := NamedPrefetcher(pf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NewPrefetcher = factory
		cfg.SampleEvery = sampleEvery
		cfg.SampleEveryCycles = sampleCycles
		cfg.ParallelChannels = par
		eng := New(cfg)
		rep, err := eng.Run(context.Background(), tr.Stream(), name, warmup)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	return run(false), run(true)
}

// reportJSON renders a report deterministically (JSON map keys are sorted).
func reportJSON(t *testing.T, rep metrics.Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSerialParallelEquivalence is the determinism contract of the sharded
// engine: for every catalog app under the paper's evaluated prefetchers,
// the serial and parallel engines must produce bit-identical reports —
// every counter, the float AMAT, the per-origin useful attribution and the
// full sampler window sequence. Running it under -race also exercises the
// parallel path's synchronisation (CI does).
func TestSerialParallelEquivalence(t *testing.T) {
	const n = 30_000
	for _, p := range workloads.Catalog() {
		tr := p.Generate(n)
		for _, pf := range []string{"planaria", "bop", "spp"} {
			serial, parallel := runBoth(t, pf, tr, p.Abbr, 6_000, 0, 0.25)
			sj, pj := reportJSON(t, serial), reportJSON(t, parallel)
			if sj != pj {
				t.Errorf("%s/%s: serial and parallel reports differ\nserial:   %s\nparallel: %s",
					p.Abbr, pf, sj, pj)
			}
		}
	}
}

// TestSerialParallelEquivalenceAllPrefetchers sweeps every registered
// prefetcher name on one app, with both sampling cadences exercised at
// once (request- and cycle-triggered windows interleave). Every origin the
// report names must be an events.Origin name, so the report, the
// attribution table and the Chrome trace can agree on it.
func TestSerialParallelEquivalenceAllPrefetchers(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(20_000)
	for _, pf := range PrefetcherNames() {
		serial, parallel := runBoth(t, pf, tr, p.Abbr, 4_000, 75_000, 0.2)
		sj, pj := reportJSON(t, serial), reportJSON(t, parallel)
		if sj != pj {
			t.Errorf("%s: serial and parallel reports differ\nserial:   %s\nparallel: %s", pf, sj, pj)
		}
		for _, byOrigin := range []map[string]uint64{serial.UsefulByOrigin, serial.LateByOrigin} {
			for origin := range byOrigin {
				if events.OriginFromName(origin).String() != origin {
					t.Errorf("%s: report origin %q is not an events.Origin name", pf, origin)
				}
			}
		}
	}
}

// TestSerialParallelEquivalenceNoSampling pins the barrier-free fast path
// (no sampler: the four channels run start-to-finish with no
// synchronisation points at all).
func TestSerialParallelEquivalenceNoSampling(t *testing.T) {
	p := workloads.Catalog()[1]
	tr := p.Generate(25_000)
	serial, parallel := runBoth(t, "planaria", tr, p.Abbr, 0, 0, 0)
	if sj, pj := reportJSON(t, serial), reportJSON(t, parallel); sj != pj {
		t.Errorf("no-sampling: serial and parallel reports differ\nserial:   %s\nparallel: %s", sj, pj)
	}
	if serial.Series != nil || parallel.Series != nil {
		t.Error("sampling disabled but a report carries a time series")
	}
}

// TestParallelSeriesInvariant re-checks PR 1's final-aggregate invariant on
// the parallel engine directly: the windowed series must sum exactly to the
// report aggregates even though the windows were merged at barriers.
func TestParallelSeriesInvariant(t *testing.T) {
	p := workloads.Catalog()[0]
	factory, _ := NamedPrefetcher("planaria")
	cfg := DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.SampleEvery = 5_000
	cfg.ParallelChannels = true
	eng := New(cfg)
	rep, err := eng.RunStream(p.Generate(40_000).Stream(), p.Abbr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Series == nil || len(rep.Series.Samples) < 5 {
		t.Fatalf("parallel run produced %d samples, want >= 5", len(rep.Series.Samples))
	}
	tot := rep.Series.Totals()
	if tot.DemandReads != rep.DemandReads || tot.DRAMReads != rep.DRAM.Reads ||
		tot.UsefulPrefetches != rep.Cache.UsefulPrefetches {
		t.Fatalf("parallel series totals diverge from report: %+v vs reads=%d dram=%d useful=%d",
			tot, rep.DemandReads, rep.DRAM.Reads, rep.Cache.UsefulPrefetches)
	}
	if amat := float64(tot.ReadLatency) / float64(tot.DemandReads); amat != rep.AMAT {
		t.Fatalf("parallel series AMAT %v != report AMAT %v", amat, rep.AMAT)
	}
	for o, n := range rep.UsefulByOrigin {
		if tot.UsefulByOrigin[o] != n {
			t.Fatalf("origin %q: series %d != report %d", o, tot.UsefulByOrigin[o], n)
		}
	}
}

// TestParallelErrorMatchesSerial: an out-of-order trace must surface the
// same first error from both engines (the parallel engine attributes the
// failure to the earliest record in global trace order).
func TestParallelErrorMatchesSerial(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(5_000)
	// Corrupt the trace deep in: two channel-0 accesses to untouched pages
	// (guaranteed misses, so both reach the DRAM queue), the second with a
	// rewound cycle so the controller's enqueue-order invariant trips.
	bad := make(trace.Trace, len(tr))
	copy(bad, tr)
	bad[4_000] = trace.Record{Addr: addr.PageNum(1 << 30).Block(0).Addr(), Cycle: bad[3_999].Cycle}
	bad[4_001] = trace.Record{Addr: addr.PageNum(1<<30 + 1).Block(0).Addr(), Cycle: 1}

	run := func(par bool) error {
		cfg := DefaultConfig()
		cfg.ParallelChannels = par
		eng := New(cfg)
		_, err := eng.RunStream(bad.Stream(), p.Abbr)
		return err
	}
	serr, perr := run(false), run(true)
	if serr == nil || perr == nil {
		t.Fatalf("out-of-order trace accepted: serial=%v parallel=%v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Fatalf("error mismatch: serial %q, parallel %q", serr, perr)
	}
}
