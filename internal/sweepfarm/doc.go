// Package sweepfarm runs experiment grids as a resumable, repeated,
// statistically-rigorous job queue — the one runner of cmd/experiments:
// every `-run` id that simulates and every `-grid` file is a grid run here
// (experiments.Run).
//
// A Grid is the cross product (apps × prefetchers × config variants), less
// the prefetchers a variant excludes; a variant may override the SC slice
// size and policy and Planaria's TLP distance and SLP pattern-table size.
// Each cell of the grid runs R seeded repeats. Every (cell, repeat) pair
// is one job: jobs fan out to a bounded worker pool, each job simulates one
// full run (internal/sim) — stepping its four channels inline on its worker
// while at least as many jobs are unstarted as there are workers, on one
// goroutine per channel after that — and, when an artifact directory is
// configured, checkpoints its result to disk as a versioned JSON artifact
// in the internal/obs schema (v3: repeat index, seed and configuration hash
// in the manifest) the moment it completes.
//
// Seeding is deterministic: repeat 0 keeps the catalog profile's seed — so
// an R=1 grid, the default of every `-run` id, reproduces the
// paper's single-pass point estimates bit for bit — while repeats ≥ 1
// derive fresh seeds from the cell key and repeat index alone. Two runs of
// the same grid therefore simulate exactly the same set of traces,
// regardless of worker count, interruption or host.
//
// Resume: on startup the runner scans the artifact directory and accepts a
// job's artifact only when its manifest matches the planned job exactly —
// same workload, prefetcher, repeat index, seed, request count and
// configuration hash, and no recorded failure. Matching jobs are loaded
// instead of executed; anything missing, stale or failed is re-run. An
// interrupted grid (SIGINT cancels the context; in-flight jobs stop at the
// next chunk boundary and are not checkpointed) thus continues where it
// left off, and the resumed aggregates are byte-identical to an
// uninterrupted run (pinned under -race by TestRunnerInterruptResume).
//
// Aggregation reduces each complete cell's repeats to mean, sample standard
// deviation and a Student-t 95 % confidence half-interval per metric.
// Paper-ready outputs: a grouped CSV (mean/std/ci columns per metric), a
// LaTeX table and the Figure 7/8/10-style text tables annotated with ±CI
// when R > 1. See EXPERIMENTS.md ("Sweep farm") and docs/OBSERVABILITY.md
// (schema v3).
package sweepfarm
