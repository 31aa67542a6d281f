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

// sides names the three ways the equivalence tests run a trace: the
// stepLoop oracle, Run with ParallelChannels false and Run with it set.
var sides = [3]string{"step loop", "inline", "channel workers"}

// stepLoop is the oracle Run is checked against: every record through
// Engine.Step, statistics reset immediately before global record warmAt
// (after the last record when warmAt is at or past the end), then Finish.
// It shares no code with Run's splitter. On an error it returns the
// failing record's position.
func stepLoop(e *Engine, tr trace.Trace, name string, warmup float64) (metrics.Report, int64, error) {
	warmAt := int64(-1)
	if w := ClampWarmup(warmup); w > 0 {
		warmAt = int64(float64(len(tr)) * w)
	}
	for i, rec := range tr {
		if int64(i) == warmAt {
			e.ResetStats()
		}
		if err := e.Step(rec); err != nil {
			return metrics.Report{}, int64(i), err
		}
	}
	if warmAt >= int64(len(tr)) {
		e.ResetStats()
	}
	return e.Finish(name), 0, nil
}

// runSides drives the same trace through the three sides, on engines built
// from otherwise identical configurations, and returns their reports.
func runSides(t *testing.T, pf string, tr trace.Trace, name string, sampleEvery, sampleCycles uint64, warmup float64) [3]metrics.Report {
	t.Helper()
	engine := func(par bool) *Engine {
		factory, err := NamedPrefetcher(pf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NewPrefetcher = factory
		cfg.SampleEvery = sampleEvery
		cfg.SampleEveryCycles = sampleCycles
		cfg.ParallelChannels = par
		return New(cfg)
	}
	var reps [3]metrics.Report
	var err error
	if reps[0], _, err = stepLoop(engine(false), tr, name, warmup); err != nil {
		t.Fatal(err)
	}
	for i, par := range []bool{false, true} {
		if reps[i+1], err = engine(par).Run(context.Background(), tr.Stream(), name, warmup); err != nil {
			t.Fatal(err)
		}
	}
	return reps
}

// requireSameReports fails the test unless every side's report renders to
// the step loop's JSON.
func requireSameReports(t *testing.T, label string, reps [3]metrics.Report) {
	t.Helper()
	want := reportJSON(t, reps[0])
	for i := 1; i < len(reps); i++ {
		if got := reportJSON(t, reps[i]); got != want {
			t.Errorf("%s: %s report differs from the %s\n%s: %s\n%s: %s",
				label, sides[i], sides[0], sides[0], want, sides[i], got)
		}
	}
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

// TestSerialParallelEquivalence is the determinism contract of the stream
// driver: for every catalog app under the paper's evaluated prefetchers,
// the step loop, the inline driver and the channel workers must produce
// bit-identical reports — every counter, the float AMAT, the per-origin
// useful attribution and the full sampler window sequence. Running it
// under -race also exercises the workers' synchronisation (CI does).
func TestSerialParallelEquivalence(t *testing.T) {
	const n = 30_000
	for _, p := range workloads.Catalog() {
		tr := p.Generate(n)
		for _, pf := range []string{"planaria", "bop", "spp"} {
			requireSameReports(t, p.Abbr+"/"+pf, runSides(t, pf, tr, p.Abbr, 6_000, 0, 0.25))
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
		reps := runSides(t, pf, tr, p.Abbr, 4_000, 75_000, 0.2)
		requireSameReports(t, pf, reps)
		for _, byOrigin := range []map[string]uint64{reps[0].UsefulByOrigin, reps[0].LateByOrigin} {
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
	reps := runSides(t, "planaria", tr, p.Abbr, 0, 0, 0)
	requireSameReports(t, "no-sampling", reps)
	for i, rep := range reps {
		if rep.Series != nil {
			t.Errorf("sampling disabled but the %s report carries a time series", sides[i])
		}
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
// same first error from all three sides, blamed on the same global record.
func TestParallelErrorMatchesSerial(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(5_000)
	// Corrupt the trace deep in: two channel-0 accesses to untouched pages
	// (guaranteed misses), the second with a rewound cycle, which both
	// drivers refuse where it enters the engine.
	bad := make(trace.Trace, len(tr))
	copy(bad, tr)
	bad[4_000] = trace.Record{Addr: addr.PageNum(1 << 30).Block(0).Addr(), Cycle: bad[3_999].Cycle}
	bad[4_001] = trace.Record{Addr: addr.PageNum(1<<30 + 1).Block(0).Addr(), Cycle: 1}

	var at [3]int64
	var errs [3]error
	_, at[0], errs[0] = stepLoop(New(DefaultConfig()), bad, p.Abbr, 0)
	for i, par := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.ParallelChannels = par
		rep, err := New(cfg).RunStream(bad.Stream(), p.Abbr)
		at[i+1], errs[i+1] = rep.FailedAt, err
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("%s accepted the out-of-order trace", sides[i])
		}
		if err.Error() != errs[0].Error() || at[i] != 4_001 {
			t.Errorf("%s: %q at record %d, want %q at record 4001", sides[i], err, at[i], errs[0])
		}
	}
}
