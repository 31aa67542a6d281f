// Package power implements the memory-system power model of the
// reproduction, standing in for the proprietary vendor model the paper
// embeds in its simulator (Section 5).
//
// The model is an IDD-style energy-per-command account: every DRAM command
// class carries a fixed energy, background power accrues with wall-clock
// cycles, and the system cache and prefetcher metadata contribute per-access
// energies. The paper's power claims are driven by *extra DRAM traffic*
// (prefetch reads and the activates they cause), which is exactly what this
// model charges, so prefetcher-relative power follows the same mechanics as
// in the paper: inaccurate prefetchers pay for wasted bursts and activates,
// accurate batched prefetchers approach (or beat, via row-hit conversion)
// the no-prefetcher baseline.
package power

import (
	"math"

	"repro/internal/dram"
)

// Params holds per-event energies in picojoules and background power in
// picojoules per cycle. Defaults approximate LPDDR4 x16 datasheet-derived
// figures; only ratios matter for the reproduced comparisons.
type Params struct {
	ActPrePJ     float64 // one ACT+PRE pair (row activation energy)
	ReadBurstPJ  float64 // one 64 B read burst
	WriteBurstPJ float64 // one 64 B write burst
	RefreshPJ    float64 // one all-bank refresh
	BackgroundPJ float64 // per channel per active (CKE high) cycle
	PowerDownPJ  float64 // per channel per powered-down cycle (CKE low)
	SCAccessPJ   float64 // one system-cache lookup or fill
	MetaAccessPJ float64 // one prefetcher metadata access
}

// DefaultParams returns the default LPDDR4-class energy parameters.
func DefaultParams() Params {
	return Params{
		ActPrePJ:     1500,
		ReadBurstPJ:  1100,
		WriteBurstPJ: 1250,
		RefreshPJ:    28000,
		BackgroundPJ: 8,
		PowerDownPJ:  1.6,
		SCAccessPJ:   180,
		MetaAccessPJ: 12,
	}
}

// Breakdown is the energy decomposition of one simulation run, in picojoules.
type Breakdown struct {
	Activate   float64 `json:"activate"`
	Read       float64 `json:"read"`
	Write      float64 `json:"write"`
	Refresh    float64 `json:"refresh"`
	Background float64 `json:"background"`
	SysCache   float64 `json:"sys_cache"`
	Metadata   float64 `json:"metadata"`
}

// Total returns the summed energy in picojoules.
func (b Breakdown) Total() float64 {
	return b.Activate + b.Read + b.Write + b.Refresh + b.Background + b.SysCache + b.Metadata
}

// Account computes the energy breakdown for one channel at DefaultParams,
// given its DRAM statistics, the number of system-cache events (accesses +
// fills), the number of prefetcher metadata events (train + issue lookups),
// the prefetcher's metadata size in bits and the wall-clock duration of the
// run in cycles.
//
// Metadata access energy scales with the square root of the array size
// (SRAM wordline/bitline energy grows with array dimensions), normalised to
// a 64 Kbit array, so a large pattern table costs proportionally more per
// lookup than BOP's tiny recent-requests table.
func Account(ds dram.Stats, scEvents, metaEvents, metaBits, cycles uint64) Breakdown {
	p := DefaultParams()
	metaScale := 1.0
	if metaBits > 65536 {
		metaScale = math.Sqrt(float64(metaBits) / 65536)
	}
	pd := ds.PowerDownCycles
	if pd > cycles {
		pd = cycles
	}
	return Breakdown{
		Activate:   float64(ds.Activates) * p.ActPrePJ,
		Read:       float64(ds.Reads) * p.ReadBurstPJ,
		Write:      float64(ds.Writes) * p.WriteBurstPJ,
		Refresh:    float64(ds.Refreshes) * p.RefreshPJ,
		Background: float64(cycles-pd)*p.BackgroundPJ + float64(pd)*p.PowerDownPJ,
		SysCache:   float64(scEvents) * p.SCAccessPJ,
		Metadata:   float64(metaEvents) * p.MetaAccessPJ * metaScale,
	}
}

// Add merges two breakdowns (e.g. across channels).
func Add(a, b Breakdown) Breakdown {
	return Breakdown{
		Activate:   a.Activate + b.Activate,
		Read:       a.Read + b.Read,
		Write:      a.Write + b.Write,
		Refresh:    a.Refresh + b.Refresh,
		Background: a.Background + b.Background,
		SysCache:   a.SysCache + b.SysCache,
		Metadata:   a.Metadata + b.Metadata,
	}
}

// AvgPowerMW converts total energy over a cycle count into milliwatts,
// assuming the given clock frequency in MHz (LPDDR4-3200 command clock
// ≈ 1600 MHz).
func AvgPowerMW(b Breakdown, cycles uint64, clockMHz float64) float64 {
	if cycles == 0 || clockMHz <= 0 {
		return 0
	}
	seconds := float64(cycles) / (clockMHz * 1e6)
	watts := b.Total() * 1e-12 / seconds
	return watts * 1e3
}
