package sim

// This file is the engine's run entry point: Run consumes a trace.Stream
// with O(chunk) memory, so run length is bounded by throughput, not RAM. An
// in-memory trace runs through its slice-backed stream (trace.Trace.Stream).
//
// On any failure — a stream fault, a simulation error or a cancelled
// context — the engine returns a *partial* report marked Truncated with the
// failure position in FailedAt, alongside the error, instead of discarding
// the work already done (docs/PERFORMANCE.md, "Failure model").

import (
	"context"
	"errors"
	"math"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrUnsizedWarmup reports a warmup fraction applied to a stream of unknown
// length: the engine cannot place the warmup boundary without a total
// record count. Use a stream of known length (trace.Sized — e.g. the
// stream of a file opened with trace.Open, or ReaderStream.WithLen) or run
// without warmup.
var ErrUnsizedWarmup = errors.New("sim: warmup fraction requires a sized stream (trace.Sized)")

// Run processes a whole record stream and returns the aggregated report.
// Memory use is O(chunk), independent of stream length.
//
// The first warmup fraction of records only warms caches and trains
// prefetchers: statistics (and the metrics sampler, when enabled) are reset
// at the boundary, so the report covers the measured region alone. Warmup 0
// means no warmup; fractions outside [0, 0.9] are clamped. A positive
// fraction needs a sized stream (ErrUnsizedWarmup otherwise); slice and
// generator streams always know their length. With Config.Telemetry set, a
// sized stream's length is added to the expected-records series first.
//
// Cancelling ctx stops the engine at the next chunk boundary, tears down
// every channel worker without leaking goroutines, and returns ctx.Err()
// with a partial report (Truncated set, FailedAt at the position the
// consumer had reached).
func (e *Engine) Run(ctx context.Context, s trace.Stream, workload string, warmup float64) (metrics.Report, error) {
	n := trace.StreamLen(s)
	warmAt := int64(-1)
	if warmup = ClampWarmup(warmup); warmup > 0 {
		if n < 0 {
			// Nothing ran: no partial report to salvage.
			return metrics.Report{}, ErrUnsizedWarmup
		}
		warmAt = int64(float64(n) * warmup)
	}
	if n >= 0 {
		e.runExpected.Add(int64(n))
	}
	failedAt, err := e.runParallelStream(ctx, s, warmAt)
	rep := e.Finish(workload)
	if err != nil {
		rep.Truncated = true
		rep.FailedAt = failedAt
	}
	return rep, err
}

// RunStream is Run without cancellation or warmup.
func (e *Engine) RunStream(s trace.Stream, workload string) (metrics.Report, error) {
	return e.Run(context.Background(), s, workload, 0)
}

// ClampWarmup maps a warmup fraction into [0, 0.9], the range Run accepts;
// NaN and negatives disable warmup (a NaN must not survive the clamp —
// every comparison against it is false, so it would otherwise slip through
// and poison the warmup boundary arithmetic).
func ClampWarmup(w float64) float64 {
	switch {
	case math.IsNaN(w) || w < 0:
		return 0
	case w > 0.9:
		return 0.9
	}
	return w
}
