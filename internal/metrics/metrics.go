// Package metrics aggregates simulation statistics into the figures the
// paper reports: system-cache hit rate, AMAT, DRAM traffic, prefetch
// accuracy/coverage, energy and an analytic IPC estimate.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/power"
	"repro/internal/prefetch"
	"repro/internal/telemetry"
)

// Report is the result of one simulation run (one workload × one
// prefetcher), aggregated over all four channels.
type Report struct {
	Workload   string `json:"workload"`
	Prefetcher string `json:"prefetcher"`

	DemandReads  uint64 `json:"demand_reads"`
	DemandWrites uint64 `json:"demand_writes"`

	Cache    cache.Stats    `json:"cache"`    // summed over channels
	DRAM     dram.Stats     `json:"dram"`     // summed over channels
	Prefetch prefetch.Stats `json:"prefetch"` // summed over channels

	// LatePrefetchHits counts demand reads served by a prefetch still in
	// flight (the demand waited out the remaining fill latency).
	LatePrefetchHits uint64 `json:"late_prefetch_hits"`

	// UsefulByOrigin attributes useful prefetches (including late hits)
	// to the issuing sub-prefetcher for composite prefetchers that report
	// an origin, keyed by events.Origin name: "slp"/"tlp" for Planaria,
	// the component name for the tournament's built-in components, "other"
	// for any other name. Empty for other prefetchers.
	UsefulByOrigin map[string]uint64 `json:"useful_by_origin,omitempty"`

	// LateByOrigin attributes the LatePrefetchHits above to the issuing
	// sub-prefetcher, so a composite's late hits — previously folded into
	// UsefulByOrigin invisibly — can be separated per origin. Empty for
	// prefetchers that report no origin.
	LateByOrigin map[string]uint64 `json:"late_by_origin,omitempty"`

	// Channels records the simulated geometry that produced this report:
	// Channels independent SC slices, one execution unit each. The
	// geometry is a property of the simulated system, not of the
	// execution mode, so serial and parallel runs produce byte-identical
	// reports. Zero in reports from older runs.
	Channels int `json:"channels,omitempty"`

	SCHitLatency uint64  `json:"sc_hit_latency"` // cycles charged for an SC hit
	AMAT         float64 `json:"amat_cycles"`    // average memory access time for demand reads, cycles
	Cycles       uint64  `json:"cycles"`         // wall-clock duration of the run

	Energy power.Breakdown `json:"energy_pj"`

	StorageBits int `json:"storage_bits"` // prefetcher metadata across channels

	// Series is the windowed time-series of the run, present when
	// sampling was enabled (sim.Config.SampleEvery*); nil otherwise. Its
	// window counters sum exactly to the aggregates above.
	Series *TimeSeries `json:"series,omitempty"`

	// Telemetry is the run's live-metrics summary — counter totals and
	// p50/p90/p99 + bucket vectors of every latency histogram — present
	// when telemetry was enabled (sim.Config.Telemetry); nil otherwise
	// (obs artifact schema v4). Unlike the aggregates above, it covers
	// the whole run including warmup: instruments follow Prometheus
	// counter semantics and are never reset mid-run.
	Telemetry *telemetry.Summary `json:"telemetry,omitempty"`

	// Truncated marks a partial report: the run ended early on a stream
	// fault, a simulation error or a cancelled context, and the counters
	// cover only the records processed up to that point. The error
	// returned alongside the report says why.
	Truncated bool `json:"truncated,omitempty"`
	// FailedAt is the 0-based global trace position the failure is
	// attributed to — the earliest failing record for simulation errors,
	// the number of records delivered for stream faults, and the
	// position the consumer had reached for cancellations. Meaningful
	// only when Truncated is set.
	FailedAt int64 `json:"failed_at,omitempty"`
}

// HitRate returns the demand hit rate of the system cache.
func (r Report) HitRate() float64 { return r.Cache.HitRate() }

// Traffic returns the total DRAM traffic in block transfers (reads + writes,
// demand + prefetch) — the quantity behind the paper's "extra memory
// traffic" percentages.
func (r Report) Traffic() uint64 { return r.DRAM.Reads + r.DRAM.Writes }

// Accuracy returns the prefetch accuracy (useful fills / fills).
func (r Report) Accuracy() float64 { return r.Cache.Accuracy() }

// Coverage returns the fraction of would-be demand misses eliminated (fully
// or partially) by prefetching: (useful + late prefetch hits) /
// (demand misses + useful prefetches). Late hits are a subset of the demand
// misses in the denominator.
func (r Report) Coverage() float64 {
	den := float64(r.Cache.DemandMisses) + float64(r.Cache.UsefulPrefetches)
	if den == 0 {
		return 0
	}
	return (float64(r.Cache.UsefulPrefetches) + float64(r.LatePrefetchHits)) / den
}

// PowerMW returns the average memory-system power in milliwatts at the given
// clock (MHz).
func (r Report) PowerMW(clockMHz float64) float64 {
	return power.AvgPowerMW(r.Energy, r.Cycles, clockMHz)
}

// String renders a one-run summary table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s / %s:\n", r.Workload, r.Prefetcher)
	fmt.Fprintf(&b, "  demand: %d reads, %d writes\n", r.DemandReads, r.DemandWrites)
	fmt.Fprintf(&b, "  SC hit rate: %.2f%%   AMAT: %.1f cycles\n", 100*r.HitRate(), r.AMAT)
	fmt.Fprintf(&b, "  DRAM traffic: %d transfers (%d prefetch reads)\n", r.Traffic(), r.DRAM.PrefReads)
	fmt.Fprintf(&b, "  prefetch: issued %d, accuracy %.1f%%, coverage %.1f%%\n",
		r.Prefetch.Issued, 100*r.Accuracy(), 100*r.Coverage())
	fmt.Fprintf(&b, "  energy: %.2f uJ   storage: %.1f KB\n",
		r.Energy.Total()/1e6, float64(r.StorageBits)/8/1024)
	return b.String()
}

// IPCModel estimates relative IPC from AMAT, standing in for the paper's
// full-system IPC measurements (see DESIGN.md, substitution table). The
// model is IPC = IPB / (CoreCyclesPerAccess + AMAT): each memory access
// costs its AMAT plus a fixed core-side component, and instructions per
// block access (IPB) is constant per workload. Only ratios between
// prefetchers are meaningful.
type IPCModel struct {
	// CoreCyclesPerAccess is the average non-memory core time attributed
	// to each SC-level access. The paper's system is memory-dominated
	// (IPC deltas ≈ 1.2 × AMAT deltas), so this is small relative to
	// typical AMAT values.
	CoreCyclesPerAccess float64
	// InstrPerAccess scales the absolute IPC value (cosmetic).
	InstrPerAccess float64
}

// DefaultIPCModel matches the memory-dominance implied by the paper's
// numbers (AMAT −24.3 % → IPC +28.9 % ⇒ core component ≈ 8 % of AMAT).
func DefaultIPCModel() IPCModel {
	return IPCModel{CoreCyclesPerAccess: 14, InstrPerAccess: 120}
}

// IPC estimates instructions per cycle for a run with the given AMAT.
func (m IPCModel) IPC(amat float64) float64 {
	den := m.CoreCyclesPerAccess + amat
	if den <= 0 {
		return 0
	}
	return m.InstrPerAccess / den
}

// Improvement returns (new − base)/base, e.g. IPC uplift. Positive means
// new is larger.
func Improvement(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (new - base) / base
}

// Reduction returns (base − new)/base, e.g. AMAT reduction. Positive means
// new is smaller.
func Reduction(base, new float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - new) / base
}

// GeoMean returns the geometric mean of positive values (used for averaging
// ratios across workloads, as architecture papers do).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}

// Mean returns the arithmetic mean.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
