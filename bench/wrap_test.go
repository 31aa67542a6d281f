package main

import (
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const testRecords = 50_000

// testSegment is a generator-fed segment of the CFM catalog profile.
func testSegment(pf string) segment {
	p, _ := workloads.ByAbbr("CFM")
	return segment{name: "CFM/" + pf, pf: pf, n: testRecords,
		open: func() (trace.Stream, func() error, error) {
			return p.Stream(testRecords), func() error { return nil }, nil
		}}
}

func runDigest(t *testing.T, seg segment, cfg sim.Config) string {
	t.Helper()
	src, closeSrc, err := seg.open()
	if err != nil {
		t.Fatal(err)
	}
	defer closeSrc()
	rep, err := sim.New(cfg).RunStream(src, seg.name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := reportDigest(rep)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWrappersTransparent pins that timing a prefetcher changes nothing the
// engine reports: the wrapped prefetcher (with and without capture) and the
// wrapped tournament mirror give byte-identical reports to the bare
// prefetchers, serial and parallel.
func TestWrappersTransparent(t *testing.T) {
	for _, pf := range []string{"none", "planaria", "planaria-tournament"} {
		for _, parallel := range []bool{false, true} {
			seg := testSegment(pf)
			cfg, err := engineConfig(pf, parallel)
			if err != nil {
				t.Fatal(err)
			}
			want := runDigest(t, seg, cfg)
			for _, capture := range []bool{false, true} {
				wcfg, ws := wrapped(cfg, capture)
				if got := runDigest(t, seg, wcfg); got != want {
					t.Errorf("%s parallel=%v capture=%v: wrapped digest %.12s, bare %.12s", pf, parallel, capture, got, want)
				}
				var calls int64
				for _, w := range *ws {
					calls += w.train.calls
				}
				if calls != testRecords {
					t.Errorf("%s: wrappers saw %d Train calls, want %d", pf, calls, testRecords)
				}
			}
			if pf != "planaria-tournament" {
				continue
			}
			mcfg := cfg
			mcfg.NewPrefetcher = func(int) prefetch.Prefetcher { m, _ := newTournamentMirror(); return m }
			if got := runDigest(t, seg, mcfg); got != want {
				t.Errorf("tournament mirror parallel=%v: digest %.12s, sim.TournamentPrefetcher %.12s", parallel, got, want)
			}
		}
	}
}

// TestDRAMReplayRequestCount checks the captured DRAM request streams hold
// every request the engine serviced, and that replaying them into fresh
// controllers services the same number.
func TestDRAMReplayRequestCount(t *testing.T) {
	su := &suite{segs: []segment{testSegment("planaria")}, records: testRecords, digests: map[string]string{}}
	cp, err := su.capture()
	if err != nil {
		t.Fatal(err)
	}
	want := cp.report.DRAM.Reads + cp.report.DRAM.Writes
	var captured uint64
	for _, st := range cp.requests {
		captured += uint64(len(st))
	}
	if captured != want || want == 0 {
		t.Fatalf("captured %d requests, engine serviced %d", captured, want)
	}
	_, st, err := replayDRAM(cp.requests)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Reads + st.Writes; got != want {
		t.Errorf("replay serviced %d requests, engine %d", got, want)
	}
	if st.DemandReads != cp.report.DRAM.DemandReads {
		t.Errorf("replay saw %d demand reads, engine %d", st.DemandReads, cp.report.DRAM.DemandReads)
	}
	if len(su.bad) > 0 {
		t.Errorf("capture pass not transparent: %v", su.bad)
	}
}
