package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/workloads"
)

// TestTournamentTransparency pins the degeneration contract: a Tournament
// holding only the Planaria composite must reproduce the bare composite's
// report bit for bit — same hits, same AMAT, same traffic, same per-origin
// attribution — serial and parallel alike (run under -race by CI). Only the
// prefetcher name and the storage budget may differ: the tournament's
// selector and shadow filters are real hardware it must account for.
func TestTournamentTransparency(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(30_000)
	bare, _ := NamedPrefetcher("planaria")
	solo := func(int) prefetch.Prefetcher {
		return prefetch.NewTournament(
			prefetch.TournamentConfig{},
			core.New(core.DefaultConfig()),
		)
	}
	for _, par := range []bool{false, true} {
		run := func(factory func(int) prefetch.Prefetcher) metrics.Report {
			cfg := DefaultConfig()
			cfg.NewPrefetcher = factory
			cfg.ParallelChannels = par
			rep, err := New(cfg).Run(context.Background(), tr.Stream(), p.Abbr, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		want := run(bare)
		got := run(solo)
		if got.Prefetcher != "tournament" {
			t.Fatalf("parallel=%v: solo tournament reports prefetcher %q", par, got.Prefetcher)
		}
		if got.StorageBits <= want.StorageBits {
			t.Errorf("parallel=%v: tournament storage %d bits does not account for selector+filters (composite alone: %d)",
				par, got.StorageBits, want.StorageBits)
		}
		// Everything else must match exactly. Metadata energy is derived
		// from StorageBits, so it rides along with the storage delta.
		got.Prefetcher, got.StorageBits = want.Prefetcher, want.StorageBits
		got.Energy.Metadata = want.Energy.Metadata
		if gj, wj := reportJSON(t, got), reportJSON(t, want); gj != wj {
			t.Errorf("parallel=%v: solo tournament diverges from bare planaria\ntournament: %s\nplanaria:   %s",
				par, gj, wj)
		}
	}
}

// TestTournamentAttribReconciles extends the cross-layer accounting
// invariant to the tournament: per-component event-level used+late totals
// must equal the aggregate report's UsefulByOrigin exactly, and issue events
// must match the queue counter — the per-component accuracy/coverage rows in
// the attribution table are real, not estimates. The nextline case pins that
// a built-in component outside the default tournament keeps its own name in
// both views.
func TestTournamentAttribReconciles(t *testing.T) {
	withNextLine := func(int) prefetch.Prefetcher {
		return prefetch.NewTournament(prefetch.TournamentConfig{},
			core.New(core.DefaultConfig()), prefetch.NewNextLine(2))
	}
	for _, tc := range []struct {
		name    string
		factory func(int) prefetch.Prefetcher
	}{
		{"planaria-tournament", TournamentPrefetcher()},
		{"planaria+nextline", withNextLine},
	} {
		var nextline uint64
		for _, p := range workloads.Catalog()[:3] {
			tr := p.Generate(40_000)
			for _, par := range []bool{false, true} {
				rep, eng := runTracedWith(t, tc.factory, tr, p.Abbr, &events.Config{}, par, 0.25)
				checkAttribReconciles(t, fmt.Sprintf("%s %s parallel=%v", tc.name, p.Abbr, par), rep, eng.Events().Attrib())
				nextline += rep.UsefulByOrigin["nextline"]
			}
		}
		if tc.name == "planaria+nextline" && nextline == 0 {
			t.Errorf("%s: the nextline component earned no useful prefetches — the case tested nothing", tc.name)
		}
	}
}

// TestTournamentComponentsContribute checks the tournament is a real N-way
// arbiter in system: across the first catalog apps, components beyond the
// composite answer triggers and earn useful-prefetch credit under their own
// origin names.
func TestTournamentComponentsContribute(t *testing.T) {
	contributors := map[string]uint64{}
	for _, p := range workloads.Catalog()[:3] {
		tr := p.Generate(40_000)
		rep, _ := runTraced(t, "planaria-tournament", tr, p.Abbr, nil, true, 0.25)
		for origin, n := range rep.UsefulByOrigin {
			contributors[origin] += n
		}
	}
	for _, want := range []string{"slp", "stride"} {
		if contributors[want] == 0 {
			t.Errorf("component origin %q earned no useful prefetches across apps (got %v)", want, contributors)
		}
	}
	extra := 0
	for _, origin := range []string{"stride", "markov", "accel"} {
		if contributors[origin] > 0 {
			extra++
		}
	}
	if extra < 2 {
		t.Errorf("want at least two non-composite components contributing, got %v", contributors)
	}
}
