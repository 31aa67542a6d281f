// Package experiments contains one runner per figure and table of the
// paper's evaluation, shared by cmd/experiments and the benchmark harness
// in bench_test.go. Each runner generates the workload traces, drives the
// simulator and returns the same rows/series the paper reports.
//
// Every named (app × prefetcher) cell runs on the sweep farm
// (internal/sweepfarm) through Sweep, concurrently and with results
// identical to a serial run. RunAll simulates each cell of the evaluation
// once and renders every table from that one sweep. Only the runs that no
// registry name expresses — the cache study's cache configurations and the
// TLP-distance and PT-size ablations — run one at a time. Options controls
// the trace length, warmup fraction and the observability knobs. With
// Options.SampleEvery set, every simulated run carries a windowed metrics
// time series; with Options.ArtifactDir set, every sweep checkpoints each
// completed cell there in the farm's schema-v3 format and resumes from the
// matching checkpoints — see the internal/obs package and
// docs/OBSERVABILITY.md. All rendered output (text tables, CSV rows,
// artifact cells) uses a deterministic app and prefetcher order, so reruns
// are diff-stable.
package experiments
