// Package experiments is the paper's evaluation as one table, shared by
// cmd/experiments and the benchmark harness in bench_test.go. Each entry —
// one cmd/experiments -run id, found through Lookup — pairs the grid of
// (app × prefetcher × variant) cells it simulates with the renderer that
// prints its figures and tables and returns its headline scalars. The
// trace-analysis figures (2, 4, 5) and the storage table simulate nothing
// and have no grid.
//
// Run is the one way an experiment runs: its grid runs once on the sweep
// farm (internal/sweepfarm), concurrently and with results identical to a
// serial run, and the renderer reads repeat 0 of its cells. The cache
// study and the TLP-distance and PT-size ablations are grids too, through
// the farm's engine overrides, so every experiment checkpoints, resumes,
// repeats and cancels the same way. Options controls the trace length,
// warmup fraction and the observability knobs. With Options.SampleEvery
// set, every simulated run carries a windowed metrics time series; with
// Options.ArtifactDir set, the farm checkpoints each completed job there in
// the schema-v3 format and resumes from the matching checkpoints — see the
// internal/obs package and docs/OBSERVABILITY.md. All rendered output (text
// tables, CSV rows, artifact cells) uses a deterministic app and prefetcher
// order, so reruns are diff-stable.
package experiments
