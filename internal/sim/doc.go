// Package sim ties the substrates together into the paper's evaluation
// vehicle: a trace-driven memory-system simulator in the mould of the
// modified DRAMSim2 used in Section 5.
//
// The memory side is organised per DRAM channel, as in the paper: each
// channel owns a slice of the system cache, its own prefetcher instance and
// its own LPDDR4 controller. Demand requests flow trace → SC slice →
// (on miss) DRAM; prefetchers observe every demand access (learning) and
// emit prefetch requests (issuing) that fill the SC and consume DRAM
// bandwidth at lower scheduling priority.
//
// The simulator is functionally eager and timing-lazy: cache state updates
// at trace order while DRAM latency, bandwidth and energy are accounted by
// the event-driven controller. This is the standard trace-driven
// "functional + timing" split; see DESIGN.md.
//
// # Running
//
// Engine.Run is the one run entry point: it consumes a trace.Stream (an
// in-memory trace passes trace.Trace.Stream) with O(chunk) memory, steps
// each channel slice's records in batches — on one worker goroutine per
// channel, or inline when Config.ParallelChannels is clear — honours a
// warmup fraction and a cancellable context, and returns a partial report
// on failure. Engine.Step is the incremental API, on the calling goroutine.
//
// # Observability
//
// Beyond the end-of-run metrics.Report, the engine can sample windowed
// metric deltas while a trace runs: setting Config.SampleEvery (records) or
// Config.SampleEveryCycles (trace cycles) attaches a metrics.TimeSeries to
// the report whose windows sum exactly to the final aggregates. Sampling is
// disabled by default and costs one nil check per Step when off. A warmup
// fraction passed to Run is discarded from the statistics and from the
// time series: the first window starts at the reset boundary. See
// docs/OBSERVABILITY.md for the artifact schema and worked examples.
package sim
