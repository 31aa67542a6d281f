package metrics

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// snap builds a cumulative snapshot with the counters most window tests
// care about; latency is 100 cycles per read so AMAT is easy to predict.
func snap(cycle, requests, reads, hits, misses uint64) Snapshot {
	return Snapshot{
		Cycle:       cycle,
		Requests:    requests,
		ReadLatency: reads * 100,
		Report: Report{
			DemandReads: reads,
			Cache:       cache.Stats{DemandHits: hits, DemandMisses: misses},
		},
	}
}

func TestSamplerDueCadences(t *testing.T) {
	s := NewSampler(10, 0)
	if s.Due(9, 1000) {
		t.Fatal("due before request cadence reached")
	}
	if !s.Due(10, 1000) {
		t.Fatal("not due at request cadence")
	}

	c := NewSampler(0, 500)
	if c.Due(1, 499) {
		t.Fatal("due before cycle cadence reached")
	}
	if !c.Due(1, 500) {
		t.Fatal("not due at cycle cadence")
	}

	// After a sample, the cadence restarts from the recorded snapshot.
	c.Record(snap(500, 3, 3, 2, 1))
	if c.Due(4, 999) {
		t.Fatal("cycle cadence did not restart at the window boundary")
	}
	if !c.Due(4, 1000) {
		t.Fatal("cycle cadence lost the new base")
	}
}

func TestSamplerWindowDeltas(t *testing.T) {
	s := NewSampler(10, 0)
	s.Record(snap(1000, 10, 8, 6, 2))
	s.Record(snap(2000, 20, 15, 12, 3))
	ts := s.Finish(snap(2000, 20, 15, 12, 3)) // nothing new since last window

	if len(ts.Samples) != 2 {
		t.Fatalf("got %d samples, want 2 (no empty final window)", len(ts.Samples))
	}
	w0, w1 := ts.Samples[0], ts.Samples[1]
	if w0.StartCycle != 0 || w0.EndCycle != 1000 || w0.Requests != 10 {
		t.Fatalf("window 0 bounds wrong: %+v", w0)
	}
	if w1.StartCycle != 1000 || w1.EndCycle != 2000 || w1.Requests != 10 {
		t.Fatalf("window 1 bounds wrong: %+v", w1)
	}
	// Second window is the delta, not the cumulative value.
	if w1.DemandReads != 7 || w1.DemandHits != 6 || w1.DemandMisses != 1 {
		t.Fatalf("window 1 deltas wrong: %+v", w1)
	}
	if w1.HitRate != 6.0/7.0 {
		t.Fatalf("window 1 hit rate %v, want %v", w1.HitRate, 6.0/7.0)
	}
	if w1.AMAT != 100 {
		t.Fatalf("window 1 AMAT %v, want 100", w1.AMAT)
	}
}

func TestSamplerFinalPartialWindow(t *testing.T) {
	s := NewSampler(10, 0)
	s.Record(snap(1000, 10, 8, 6, 2))
	ts := s.Finish(snap(1300, 13, 11, 8, 3))
	if len(ts.Samples) != 2 {
		t.Fatalf("got %d samples, want full + partial", len(ts.Samples))
	}
	last := ts.Samples[1]
	if last.Requests != 3 || last.DemandReads != 3 || last.EndCycle != 1300 {
		t.Fatalf("partial window wrong: %+v", last)
	}
	tot := ts.Totals()
	if tot.Requests != 13 || tot.DemandReads != 11 || tot.DemandHits != 8 || tot.DemandMisses != 3 {
		t.Fatalf("totals do not match cumulative counters: %+v", tot)
	}
	if tot.StartCycle != 0 || tot.EndCycle != 1300 {
		t.Fatalf("totals span wrong: %+v", tot)
	}
}

func TestSamplerResetAtWarmupBoundary(t *testing.T) {
	s := NewSampler(10, 0)
	// Warmup era: samples accumulate...
	s.Record(snap(1000, 10, 8, 6, 2))
	s.Record(snap(2000, 20, 16, 12, 4))
	// ...then the engine resets statistics at cycle 2000: counters
	// restart at zero but the trace clock keeps running.
	s.Reset(2000)
	s.Record(snap(3000, 10, 9, 7, 2))
	ts := s.Finish(snap(3000, 10, 9, 7, 2))

	if len(ts.Samples) != 1 {
		t.Fatalf("warmup samples survived the reset: %d samples", len(ts.Samples))
	}
	w := ts.Samples[0]
	if w.StartCycle != 2000 {
		t.Fatalf("post-reset window starts at %d, want the reset cycle 2000", w.StartCycle)
	}
	if w.DemandReads != 9 || w.Requests != 10 {
		t.Fatalf("post-reset window treated counters as deltas from warmup: %+v", w)
	}
}

func TestSamplerOriginDeltas(t *testing.T) {
	s := NewSampler(5, 0)
	a := snap(100, 5, 5, 3, 2)
	a.UsefulByOrigin = map[string]uint64{"slp": 4, "tlp": 1}
	s.Record(a)
	b := snap(200, 10, 10, 7, 3)
	b.UsefulByOrigin = map[string]uint64{"slp": 9, "tlp": 1}
	s.Record(b)
	ts := s.Finish(b)

	if got := ts.Samples[0].UsefulByOrigin["slp"]; got != 4 {
		t.Fatalf("window 0 slp = %d, want 4", got)
	}
	w1 := ts.Samples[1].UsefulByOrigin
	if w1["slp"] != 5 {
		t.Fatalf("window 1 slp = %d, want delta 5", w1["slp"])
	}
	if _, ok := w1["tlp"]; ok {
		t.Fatal("zero-delta origin should be omitted from the window map")
	}
	tot := ts.Totals()
	if tot.UsefulByOrigin["slp"] != 9 || tot.UsefulByOrigin["tlp"] != 1 {
		t.Fatalf("origin totals wrong: %+v", tot.UsefulByOrigin)
	}
}

// TestReportJSONRoundTrip marshals a fully-populated Report (including a
// TimeSeries) and checks the unmarshalled value is identical — the artifact
// schema must not lose or rename fields silently.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Workload:         "CFM",
		Prefetcher:       "planaria",
		DemandReads:      100,
		DemandWrites:     25,
		LatePrefetchHits: 7,
		UsefulByOrigin:   map[string]uint64{"slp": 30, "tlp": 9},
		SCHitLatency:     30,
		AMAT:             123.5,
		Cycles:           99999,
		StorageBits:      2_700_000,
		Series: &TimeSeries{
			EveryRequests: 10,
			Samples: []Sample{
				{StartCycle: 0, EndCycle: 1000, Requests: 10, DemandReads: 8,
					DemandHits: 6, DemandMisses: 2, ReadLatency: 800,
					HitRate: 0.75, AMAT: 100,
					UsefulByOrigin: map[string]uint64{"slp": 2}},
				{StartCycle: 1000, EndCycle: 2000, Requests: 10, DemandReads: 7,
					DemandHits: 6, DemandMisses: 1, ReadLatency: 700,
					HitRate: 6.0 / 7.0, AMAT: 100},
			},
		},
	}
	rep.Cache.DemandAccesses = 125
	rep.Cache.DemandHits = 90
	rep.Cache.DemandMisses = 35
	rep.Cache.PrefetchFills = 40
	rep.Cache.UsefulPrefetches = 39
	rep.DRAM.Reads = 70
	rep.DRAM.Writes = 12
	rep.DRAM.LatencyHist = [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	rep.Prefetch.Candidates = 80
	rep.Prefetch.Issued = 44
	rep.Energy.Read = 1.5e6
	rep.Energy.Background = 2.25e6

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n before %+v\n after  %+v", rep, back)
	}
}
