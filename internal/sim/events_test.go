package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runTraced runs one trace with the given event configuration (nil disables
// tracing) and hands back the report plus the engine for event inspection.
func runTraced(t *testing.T, pf string, tr trace.Trace, name string, evCfg *events.Config, par bool, warmup float64) (metrics.Report, *Engine) {
	t.Helper()
	factory, err := NamedPrefetcher(pf)
	if err != nil {
		t.Fatal(err)
	}
	return runTracedWith(t, factory, tr, name, evCfg, par, warmup)
}

// runTracedWith is runTraced for a prefetcher factory that has no name.
func runTracedWith(t *testing.T, factory func(int) prefetch.Prefetcher, tr trace.Trace, name string, evCfg *events.Config, par bool, warmup float64) (metrics.Report, *Engine) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.ParallelChannels = par
	cfg.Events = evCfg
	eng := New(cfg)
	rep, err := eng.Run(context.Background(), tr.Stream(), name, warmup)
	if err != nil {
		t.Fatal(err)
	}
	return rep, eng
}

// TestTracingTransparency is the observer-effect contract: enabling event
// tracing (rings and all) must not change a single counter of the report —
// the traced and untraced runs are bit-identical, serial and parallel alike.
func TestTracingTransparency(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(30_000)
	for _, pf := range []string{"planaria", "bop"} {
		for _, par := range []bool{false, true} {
			plain, _ := runTraced(t, pf, tr, p.Abbr, nil, par, 0.25)
			traced, _ := runTraced(t, pf, tr, p.Abbr, &events.Config{RingSize: 1 << 12}, par, 0.25)
			pj, tj := reportJSON(t, plain), reportJSON(t, traced)
			if pj != tj {
				t.Errorf("%s parallel=%v: tracing changed the report\nplain:  %s\ntraced: %s", pf, par, pj, tj)
			}
		}
	}
}

// TestTracingSerialParallelEquivalence extends the engine's determinism
// contract to the event subsystem: with tracing on, the step loop, the
// inline driver and the channel workers must agree on the report AND on the
// attribution snapshot.
func TestTracingSerialParallelEquivalence(t *testing.T) {
	p := workloads.Catalog()[1]
	tr := p.Generate(30_000)
	evCfg := &events.Config{}
	factory, err := NamedPrefetcher("planaria")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.Events = evCfg
	var reps [3]metrics.Report
	var engs [3]*Engine
	engs[0] = New(cfg)
	if reps[0], _, err = stepLoop(engs[0], tr, p.Abbr, 0.2); err != nil {
		t.Fatal(err)
	}
	reps[1], engs[1] = runTraced(t, "planaria", tr, p.Abbr, evCfg, false, 0.2)
	reps[2], engs[2] = runTraced(t, "planaria", tr, p.Abbr, evCfg, true, 0.2)
	requireSameReports(t, "traced", reps)
	var snaps [3]string
	for i, eng := range engs {
		b, err := json.Marshal(eng.Events().Attrib())
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = string(b)
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i] != snaps[0] {
			t.Errorf("%s attribution snapshot differs from the %s\n%s: %s\n%s: %s",
				sides[i], sides[0], sides[0], snaps[0], sides[i], snaps[i])
		}
	}
}

// TestAttribReconcilesWithReport pins the cross-layer accounting invariant:
// the event-level used+late totals per origin must equal the aggregate
// report's UsefulByOrigin exactly — over the same post-warmup region, since
// the engine resets attribution at the warmup boundary.
func TestAttribReconcilesWithReport(t *testing.T) {
	for _, p := range workloads.Catalog()[:3] {
		tr := p.Generate(40_000)
		for _, par := range []bool{false, true} {
			rep, eng := runTraced(t, "planaria", tr, p.Abbr, &events.Config{}, par, 0.25)
			checkAttribReconciles(t, fmt.Sprintf("%s parallel=%v", p.Abbr, par), rep, eng.Events().Attrib())
		}
	}
}

// checkAttribReconciles requires the report and the attribution table to
// credit the same useful prefetches to the same origin names, and the issue
// events to count the issued prefetches.
func checkAttribReconciles(t *testing.T, run string, rep metrics.Report, snap *events.AttribSnapshot) {
	t.Helper()
	useful := snap.UsefulByOrigin()
	if len(rep.UsefulByOrigin) == 0 {
		t.Fatalf("%s: no useful prefetches at all — workload too small to test", run)
	}
	for origin, want := range rep.UsefulByOrigin {
		if got := useful[origin]; got != want {
			t.Errorf("%s origin %q: attrib used+late = %d, report useful = %d", run, origin, got, want)
		}
	}
	// No phantom origins: every event-level row matching a report origin
	// was checked above; rows with useful credit but no report entry would
	// be attribution leaks.
	for origin, got := range useful {
		if got != 0 && rep.UsefulByOrigin[origin] == 0 {
			t.Errorf("%s: origin %q has %d event-level useful but no report entry", run, origin, got)
		}
	}
	// Issue events and the prefetch queue count the same thing.
	var issued uint64
	for _, o := range snap.Origins {
		issued += o.Issued
	}
	if issued != rep.Prefetch.Issued {
		t.Errorf("%s: event-level issued %d != queue issued %d", run, issued, rep.Prefetch.Issued)
	}
}

// TestLateByOrigin pins the satellite metric: per-origin late-hit counts sum
// to the report's LatePrefetchHits, and the windowed series folds them
// identically.
func TestLateByOrigin(t *testing.T) {
	var covered bool
	for _, p := range workloads.Catalog()[:3] {
		tr := p.Generate(40_000)
		factory, _ := NamedPrefetcher("planaria")
		cfg := DefaultConfig()
		cfg.NewPrefetcher = factory
		cfg.SampleEvery = 8_000
		eng := New(cfg)
		rep, err := eng.RunStream(tr.Stream(), p.Abbr)
		if err != nil {
			t.Fatal(err)
		}
		var sum uint64
		for _, n := range rep.LateByOrigin {
			sum += n
		}
		if sum != rep.LatePrefetchHits {
			t.Errorf("%s: LateByOrigin sums to %d, LatePrefetchHits = %d (%v)",
				p.Abbr, sum, rep.LatePrefetchHits, rep.LateByOrigin)
		}
		if rep.LatePrefetchHits > 0 {
			covered = true
			if len(rep.LateByOrigin) == 0 {
				t.Errorf("%s: %d late hits but empty LateByOrigin", p.Abbr, rep.LatePrefetchHits)
			}
		}
		if rep.Series != nil {
			tot := rep.Series.Totals()
			for o, n := range rep.LateByOrigin {
				if tot.LateByOrigin[o] != n {
					t.Errorf("%s origin %q: series late %d != report %d", p.Abbr, o, tot.LateByOrigin[o], n)
				}
			}
		}
	}
	if !covered {
		t.Fatal("no workload produced a late prefetch hit — the test exercised nothing")
	}
}

// TestLateByOriginUntracedMatchesTraced: the satellite counter lives in the
// aggregate path, not the event path — it must be present and identical with
// tracing off.
func TestLateByOriginUntracedMatchesTraced(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(30_000)
	plain, _ := runTraced(t, "planaria", tr, p.Abbr, nil, false, 0)
	traced, _ := runTraced(t, "planaria", tr, p.Abbr, &events.Config{RingSize: 256}, false, 0)
	if a, b := reportJSON(t, plain), reportJSON(t, traced); a != b {
		t.Fatalf("reports differ (LateByOrigin must not depend on tracing)\nplain:  %s\ntraced: %s", a, b)
	}
}

// TestEngineEventsDisabledByDefault: a default config records nothing and
// exposes a nil recorder.
func TestEngineEventsDisabledByDefault(t *testing.T) {
	eng := New(DefaultConfig())
	if eng.Events() != nil {
		t.Fatal("recorder present without cfg.Events")
	}
}

// TestEngineRingExportAfterRun: with rings enabled, a run leaves exportable
// events on every active channel and the Chrome exporter accepts them.
func TestEngineRingExportAfterRun(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(20_000)
	_, eng := runTraced(t, "planaria", tr, p.Abbr, &events.Config{RingSize: 1 << 10}, true, 0)
	rec := eng.Events()
	if rec == nil || !rec.HasRings() {
		t.Fatal("rings missing after a traced run")
	}
	total := 0
	for ch := 0; ch < rec.Channels(); ch++ {
		total += rec.Channel(ch).Ring().Len()
	}
	if total == 0 {
		t.Fatal("traced run retained no events")
	}
}
