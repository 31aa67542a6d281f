package sim

import (
	"testing"

	"repro/internal/events"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// benchEngine drives one pre-generated trace through a fresh engine per
// iteration. Each engine starts from the paper's system under planaria,
// stepping its channels inline, as edited by edit; EngineStep leaves it
// as is, so it is the baseline the other engine benchmarks are measured
// against (sampling off: the disabled path is a single nil check per step).
// allocs/op is reported so the hot-path allocation diet is guarded too
// (BENCH_baseline.json pins the expected numbers; see docs/PERFORMANCE.md).
func benchEngine(b *testing.B, edit func(*Config)) {
	p := workloads.Catalog()[0]
	tr := p.Generate(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		factory, err := NamedPrefetcher("planaria")
		if err != nil {
			b.Fatal(err)
		}
		cfg.NewPrefetcher = factory
		cfg.ParallelChannels = false
		edit(&cfg)
		eng := New(cfg)
		if _, err := eng.RunStream(tr.Stream(), p.Abbr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr)*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkEngineStep is the sampling-disabled serial baseline (the name
// predates the sharded mode and is kept so req/s history stays comparable).
func BenchmarkEngineStep(b *testing.B) { benchEngine(b, func(*Config) {}) }

// BenchmarkEngineStepParallel is the same run on the sharded engine: four
// goroutines, one per channel, no barriers (sampling is off).
func BenchmarkEngineStepParallel(b *testing.B) {
	benchEngine(b, func(c *Config) { c.ParallelChannels = true })
}

// BenchmarkEngineStepSampled measures the serial run with a 10k-request
// sampling cadence, bounding the cost of enabled observability.
func BenchmarkEngineStepSampled(b *testing.B) {
	benchEngine(b, func(c *Config) { c.SampleEvery = 10_000 })
}

// BenchmarkEngineStepParallelSampled adds the barrier cost: the sharded
// engine synchronises all channels at every window boundary.
func BenchmarkEngineStepParallelSampled(b *testing.B) {
	benchEngine(b, func(c *Config) { c.SampleEvery, c.ParallelChannels = 10_000, true })
}

// BenchmarkEngineStepTraced is the event-tracing overhead guard: the same
// serial run as BenchmarkEngineStep with full decision-level tracing on
// (per-channel rings at the CLI default size plus attribution counters).
// BENCH_baseline.json pins it with "relative_to": "EngineStep", so
// cmd/benchguard fails CI when the traced run falls more than 20% below the
// untraced one — the overhead budget docs/TRACING.md promises. The untraced
// benchmarks above double as the tracing-off transparency guard: their
// pinned allocs/op predate the event subsystem, so any allocation added to
// the disabled path trips the existing absolute gate.
func BenchmarkEngineStepTraced(b *testing.B) {
	benchEngine(b, func(c *Config) { c.Events = &events.Config{RingSize: events.DefaultRingSize} })
}

// BenchmarkEngineStepTelemetry is the live-metrics overhead guard: the same
// serial run as BenchmarkEngineStep with the telemetry registry enabled, so
// every DRAM demand read, queue push and prefetch lifecycle event records
// into a log₂ histogram, and each stepped batch of records publishes its
// unit's counters. BENCH_baseline.json pins it with "relative_to":
// "EngineStep" and tolerance 0.10, so cmd/benchguard fails CI when the
// instrumented run falls more than 10% below the uninstrumented one — the
// overhead budget docs/OBSERVABILITY.md promises. The plain benchmarks above
// double as the telemetry-off transparency guard: their pinned allocs/op
// predate the telemetry subsystem, so any allocation added to the disabled
// path trips the existing absolute gates.
func BenchmarkEngineStepTelemetry(b *testing.B) {
	benchEngine(b, func(c *Config) { c.Telemetry = telemetry.NewRegistry() })
}

// BenchmarkEngineStepTournament is the N-way arbitration overhead guard: the
// serial BenchmarkEngineStep run under planaria-tournament (the composite
// plus the stride/markov/accel components and the set-dueling selector).
// Every component trains on every access and shadow-predicts on every miss,
// so this bounds the full tournament hot path; BENCH_baseline.json pins it
// with "relative_to": "EngineStep" so cmd/benchguard fails CI when the
// tournament falls below the pinned fraction of the bare composite's req/s.
func BenchmarkEngineStepTournament(b *testing.B) {
	benchEngine(b, func(c *Config) { c.NewPrefetcher = TournamentPrefetcher() })
}

// benchEngineStream is the streaming pipeline end to end: records flow from
// the workload generator through RunStream without ever materializing the
// trace, so each iteration pays generation + simulation (the slice
// benchmarks above pre-generate outside the timer). This is the number the
// O(chunk)-memory mode trades against BenchmarkEngineStep.
func benchEngineStream(b *testing.B, parallel bool) {
	p := workloads.Catalog()[0]
	const n = 100_000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig()
		factory, err := NamedPrefetcher("planaria")
		if err != nil {
			b.Fatal(err)
		}
		cfg.NewPrefetcher = factory
		cfg.ParallelChannels = parallel
		eng := New(cfg)
		if _, err := eng.RunStream(p.Stream(n), p.Abbr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkEngineStepStream: serial engine fed by the generator stream.
func BenchmarkEngineStepStream(b *testing.B) { benchEngineStream(b, false) }

// BenchmarkEngineStepStreamParallel: the streaming splitter fanning chunks
// to the four channel workers, which share one budget of parcels.
func BenchmarkEngineStepStreamParallel(b *testing.B) { benchEngineStream(b, true) }
