package metrics

// This file implements the windowed time-series side of the metrics
// package: a Sampler that turns cumulative counter snapshots taken by the
// simulation engine into per-window deltas, and the TimeSeries container
// attached to Report when sampling is enabled.
//
// The paper reports end-of-run aggregates, but its claims about SLP/TLP
// issue-share drift, warmup sensitivity and DRAM bandwidth behaviour are
// time-resolved; the sampler makes those phases observable without touching
// the hot counters themselves (the engine only snapshots at window
// boundaries).

// Snapshot is a cumulative counter snapshot of one run at a point in time:
// the report's counters summed over all execution units, plus the trace
// clock, the record count and the AMAT numerator. The engine builds every
// report from one final Snapshot and closes every window on one, so a
// window is the difference of two snapshots and the series sums to the
// report by construction. Counters are monotonically non-decreasing between
// statistics resets.
type Snapshot struct {
	Cycle    uint64 // trace clock at the snapshot
	Requests uint64 // records processed since the last statistics reset

	// ReadLatency is the accumulated demand-read latency (the AMAT
	// numerator): hit latency, late-prefetch wait time, and lookup plus
	// DRAM service time for true read misses.
	ReadLatency uint64

	// Report holds the summed counters. The run's labels, AMAT, series
	// and telemetry are set only on the report the engine returns.
	Report
}

// Sample is one window of a run: the delta between two consecutive
// snapshots, plus the ratio metrics computed over that window alone.
type Sample struct {
	StartCycle uint64 `json:"start_cycle"`
	EndCycle   uint64 `json:"end_cycle"`
	Requests   uint64 `json:"requests"`

	DemandReads  uint64 `json:"demand_reads"`
	DemandWrites uint64 `json:"demand_writes"`
	DemandHits   uint64 `json:"demand_hits"`
	DemandMisses uint64 `json:"demand_misses"`

	PrefetchFills    uint64 `json:"prefetch_fills"`
	UsefulPrefetches uint64 `json:"useful_prefetches"`
	LatePrefetchHits uint64 `json:"late_prefetch_hits"`
	Issued           uint64 `json:"issued"`

	DRAMReads  uint64 `json:"dram_reads"`
	DRAMWrites uint64 `json:"dram_writes"`
	PrefReads  uint64 `json:"pref_reads"`

	ReadLatency uint64 `json:"read_latency_cycles"`

	UsefulByOrigin map[string]uint64 `json:"useful_by_origin,omitempty"`
	LateByOrigin   map[string]uint64 `json:"late_by_origin,omitempty"`

	HitRate  float64 `json:"hit_rate"`
	Accuracy float64 `json:"accuracy"`
	Coverage float64 `json:"coverage"`
	AMAT     float64 `json:"amat_cycles"`
}

// TimeSeries is the ordered window sequence of one run. Counter fields sum
// exactly to the enclosing Report's aggregates (the final, possibly
// partial, window is always emitted at Finish).
type TimeSeries struct {
	EveryRequests uint64   `json:"every_requests,omitempty"`
	EveryCycles   uint64   `json:"every_cycles,omitempty"`
	Samples       []Sample `json:"samples"`
}

// Totals sums the windows back into one Sample covering the whole series,
// with the ratio metrics recomputed over the full span. By construction its
// counters equal the Report aggregates.
func (ts *TimeSeries) Totals() Sample {
	var t Sample
	if len(ts.Samples) == 0 {
		return t
	}
	t.StartCycle = ts.Samples[0].StartCycle
	t.EndCycle = ts.Samples[len(ts.Samples)-1].EndCycle
	for _, s := range ts.Samples {
		t.Requests += s.Requests
		t.DemandReads += s.DemandReads
		t.DemandWrites += s.DemandWrites
		t.DemandHits += s.DemandHits
		t.DemandMisses += s.DemandMisses
		t.PrefetchFills += s.PrefetchFills
		t.UsefulPrefetches += s.UsefulPrefetches
		t.LatePrefetchHits += s.LatePrefetchHits
		t.Issued += s.Issued
		t.DRAMReads += s.DRAMReads
		t.DRAMWrites += s.DRAMWrites
		t.PrefReads += s.PrefReads
		t.ReadLatency += s.ReadLatency
		for o, n := range s.UsefulByOrigin {
			if t.UsefulByOrigin == nil {
				t.UsefulByOrigin = make(map[string]uint64)
			}
			t.UsefulByOrigin[o] += n
		}
		for o, n := range s.LateByOrigin {
			if t.LateByOrigin == nil {
				t.LateByOrigin = make(map[string]uint64)
			}
			t.LateByOrigin[o] += n
		}
	}
	t.fillRatios()
	return t
}

// Sampler converts cumulative snapshots into windowed samples. A window
// closes when either cadence fires: EveryRequests records since the last
// boundary, or EveryCycles of trace clock since the last boundary. The
// engine owns the cadence check (Due) so disabled sampling costs one nil
// comparison per step.
type Sampler struct {
	everyRequests uint64
	everyCycles   uint64
	base          Snapshot // snapshot at the current window's start
	samples       []Sample
}

// NewSampler builds a sampler with the given cadences; either may be zero
// (that cadence is then ignored), but at least one should be set for the
// sampler to ever fire.
func NewSampler(everyRequests, everyCycles uint64) *Sampler {
	return &Sampler{everyRequests: everyRequests, everyCycles: everyCycles}
}

// Due reports whether the current window should close, given the
// cumulative request count and the trace clock.
func (s *Sampler) Due(requests, cycle uint64) bool {
	if s.everyRequests > 0 && requests-s.base.Requests >= s.everyRequests {
		return true
	}
	if s.everyCycles > 0 && cycle-s.base.Cycle >= s.everyCycles {
		return true
	}
	return false
}

// Record closes the current window at snap: the delta between snap and the
// window's starting snapshot becomes a Sample, and snap starts the next
// window.
func (s *Sampler) Record(snap Snapshot) {
	s.samples = append(s.samples, delta(s.base, snap))
	s.base = snap
}

// Reset discards all samples and restarts the first window at the given
// cycle with zeroed counters. Called at the warmup boundary, where the
// engine resets every statistic but the trace clock keeps running: the
// first post-warmup window starts at the reset cycle, not at zero, and no
// warmup-era sample survives.
func (s *Sampler) Reset(cycle uint64) {
	s.samples = nil
	s.base = Snapshot{Cycle: cycle}
}

// Finish closes the final (possibly partial) window at snap, if it saw any
// activity, and returns the completed series. Engines call this after
// landing in-flight prefetches and flushing the DRAM controllers so the
// series totals match the run's final aggregates exactly.
func (s *Sampler) Finish(snap Snapshot) *TimeSeries {
	if d := delta(s.base, snap); !d.empty() {
		s.samples = append(s.samples, d)
		s.base = snap
	}
	return &TimeSeries{
		EveryRequests: s.everyRequests,
		EveryCycles:   s.everyCycles,
		Samples:       s.samples,
	}
}

// delta computes the window between two cumulative snapshots.
func delta(base, cur Snapshot) Sample {
	d := Sample{
		StartCycle:       base.Cycle,
		EndCycle:         cur.Cycle,
		Requests:         cur.Requests - base.Requests,
		DemandReads:      cur.DemandReads - base.DemandReads,
		DemandWrites:     cur.DemandWrites - base.DemandWrites,
		DemandHits:       cur.Cache.DemandHits - base.Cache.DemandHits,
		DemandMisses:     cur.Cache.DemandMisses - base.Cache.DemandMisses,
		PrefetchFills:    cur.Cache.PrefetchFills - base.Cache.PrefetchFills,
		UsefulPrefetches: cur.Cache.UsefulPrefetches - base.Cache.UsefulPrefetches,
		LatePrefetchHits: cur.LatePrefetchHits - base.LatePrefetchHits,
		Issued:           cur.Prefetch.Issued - base.Prefetch.Issued,
		DRAMReads:        cur.DRAM.Reads - base.DRAM.Reads,
		DRAMWrites:       cur.DRAM.Writes - base.DRAM.Writes,
		PrefReads:        cur.DRAM.PrefReads - base.DRAM.PrefReads,
		ReadLatency:      cur.ReadLatency - base.ReadLatency,
		UsefulByOrigin:   diffByOrigin(base.UsefulByOrigin, cur.UsefulByOrigin),
		LateByOrigin:     diffByOrigin(base.LateByOrigin, cur.LateByOrigin),
	}
	d.fillRatios()
	return d
}

// diffByOrigin returns the non-zero per-origin increments from base to cur,
// or nil when there are none.
func diffByOrigin(base, cur map[string]uint64) map[string]uint64 {
	var d map[string]uint64
	for o, n := range cur {
		if dn := n - base[o]; dn > 0 {
			if d == nil {
				d = make(map[string]uint64)
			}
			d[o] = dn
		}
	}
	return d
}

// fillRatios computes the window-local ratio metrics from the counters,
// mirroring the Report definitions (hit rate over demand accesses, accuracy
// over prefetch fills, coverage over eliminated misses, AMAT over demand
// reads).
func (d *Sample) fillRatios() {
	if acc := d.DemandHits + d.DemandMisses; acc > 0 {
		d.HitRate = float64(d.DemandHits) / float64(acc)
	}
	if d.PrefetchFills > 0 {
		d.Accuracy = float64(d.UsefulPrefetches) / float64(d.PrefetchFills)
	}
	if den := d.DemandMisses + d.UsefulPrefetches; den > 0 {
		d.Coverage = float64(d.UsefulPrefetches+d.LatePrefetchHits) / float64(den)
	}
	if d.DemandReads > 0 {
		d.AMAT = float64(d.ReadLatency) / float64(d.DemandReads)
	}
}

// empty reports whether the window recorded no activity at all (used to
// suppress a zero final window at Finish).
func (d Sample) empty() bool {
	return d.Requests == 0 && d.DemandReads == 0 && d.DemandWrites == 0 &&
		d.PrefetchFills == 0 && d.LatePrefetchHits == 0 && d.Issued == 0 &&
		d.DRAMReads == 0 && d.DRAMWrites == 0 && d.ReadLatency == 0
}
