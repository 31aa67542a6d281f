// Package obs is the observability layer of the Planaria reproduction: it
// turns simulation results into machine-readable, diff-stable run artifacts
// and hosts the profiling hooks shared by the command-line tools.
//
// An artifact is one JSON document with three parts:
//
//   - a Manifest recording how the run was produced: tool, workload,
//     prefetcher, trace length, warmup fraction, sampling cadence, seed,
//     provenance (the binary's VCS stamp, else git describe of the
//     working directory), Go version, platform and wall time. Any number
//     in the artifact can thus be traced back to a reproducible
//     invocation;
//   - an optional metrics.Report (with its windowed TimeSeries when
//     sampling was enabled) for single-run tools, or a list of Cells —
//     one (app × prefetcher) report each — for sweeps;
//   - an optional flat Summary of headline scalars for experiments whose
//     output is not a report (e.g. the Figure 4 overlap rate).
//
// Artifacts are written with sorted keys and a fixed indentation by
// encoding/json, and cells are emitted in sorted (app, prefetcher) order by
// the callers, so artifacts produced from identical runs are byte-identical
// — they can be committed, diffed and used as benchmark baselines
// (BENCH_*.json). The schema is versioned by Manifest.SchemaVersion and
// documented in docs/OBSERVABILITY.md.
//
// The profiling hooks (StartCPUProfile, WriteHeapProfile) are thin wrappers
// over runtime/pprof used by cmd/planaria-sim and cmd/experiments behind
// their -cpuprofile/-memprofile flags. Behind -live-dir, LiveViews keeps
// a run's metrics, progress and attribution current as files while it is
// in flight.
package obs
