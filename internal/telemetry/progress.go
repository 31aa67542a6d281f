package telemetry

// Run progress lives in the registry as two series: a counter of records
// processed and a gauge of records declared. The engine advances them per
// chunk, the sweep runners per job; Progress turns them into the view that
// the -live-dir progress.json view and the -progress printer both show.

import "time"

// Family names shared by the producers of run progress and its view. The
// DRAM latency family is the engine's; it is named here so the view reads
// it without importing the engine.
const (
	MetricRunRecords            = "planaria_run_records_total"
	MetricRunRecordsExpected    = "planaria_run_records_expected"
	MetricDRAMDemandReadLatency = "planaria_dram_demand_read_latency_cycles"
)

// RunProgress registers (or finds) the run-progress series on r. Producers
// declare a run's records on expected before it starts and add processed
// records as they go, so sequential runs sharing one registry accumulate.
// Both are nil — safe no-ops — on a nil registry.
func RunProgress(r *Registry) (records *Counter, expected *Gauge) {
	return r.Counter(MetricRunRecords, "Trace records processed so far."),
		r.Gauge(MetricRunRecordsExpected, "Trace records declared by the runs started so far.")
}

// Progress is one self-describing progress snapshot, JSON-shaped for the
// progress.json live view.
type Progress struct {
	Records    int64   `json:"records"`
	Total      int64   `json:"total,omitempty"`    // 0 = unknown
	Fraction   float64 `json:"fraction,omitempty"` // records/total when known
	ElapsedSec float64 `json:"elapsed_seconds"`
	ReqPerSec  float64 `json:"req_per_s"`
	ETASec     float64 `json:"eta_seconds,omitempty"` // remaining/req_per_s when total known

	// P99DemandLatCycles is the live p99 of the DRAM demand-read latency
	// family, present once the registry has observed a demand read.
	P99DemandLatCycles float64 `json:"p99_demand_lat_cycles,omitempty"`
}

// Progress computes the progress snapshot of r, with elapsed time and rates
// measured from start. Safe to call mid-run from any goroutine.
func (r *Registry) Progress(start time.Time) Progress {
	records, expected := RunProgress(r)
	p := Progress{
		Records:    int64(records.Value()),
		Total:      max(expected.Value(), 0),
		ElapsedSec: time.Since(start).Seconds(),
	}
	if p.ElapsedSec > 0 {
		p.ReqPerSec = float64(p.Records) / p.ElapsedSec
	}
	if p.Total > 0 {
		p.Fraction = float64(p.Records) / float64(p.Total)
		if p.ReqPerSec > 0 && p.Total > p.Records {
			p.ETASec = float64(p.Total-p.Records) / p.ReqPerSec
		}
	}
	if v, ok := r.Quantile(MetricDRAMDemandReadLatency, 0.99); ok {
		p.P99DemandLatCycles = v
	}
	return p
}
