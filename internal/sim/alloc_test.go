package sim

import (
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// stepSlices warms eng on the head of tr, then measures allocations while
// stepping the unseen tail in 2k-record slices. The tail is consumed
// strictly forward (cycles must stay monotonic for the DRAM controllers),
// so it must hold enough records for the warm slice plus every measured
// run.
func stepSlices(t *testing.T, eng *Engine, tr trace.Trace, warm int) float64 {
	t.Helper()
	for _, rec := range tr[:warm] {
		if err := eng.Step(rec); err != nil {
			t.Fatal(err)
		}
	}
	tail := tr[warm:]
	pos := 0
	step := func() {
		if pos+2_000 > len(tail) {
			t.Fatalf("tail exhausted at %d of %d — size the trace up", pos, len(tail))
		}
		for i := 0; i < 2_000; i++ {
			if err := eng.Step(tail[pos]); err != nil {
				t.Fatal(err)
			}
			pos++
		}
	}
	step() // grow anything the measured region would touch first
	return testing.AllocsPerRun(5, step)
}

// TestEngineStepSteadyStateAllocs pins the tentpole allocation property:
// once the engine is warm — tables populated, rings grown, the candidate
// buffer sized — stepping a record allocates nothing, for every named
// prefetcher. Warm-up is the only allocating phase; see
// docs/PERFORMANCE.md ("Allocation behaviour").
func TestEngineStepSteadyStateAllocs(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(120_000)
	for _, pf := range PrefetcherNames() {
		factory, err := NamedPrefetcher(pf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NewPrefetcher = factory
		cfg.ParallelChannels = false // Step is the always-serial API
		if avg := stepSlices(t, New(cfg), tr, 100_000); avg != 0 {
			t.Errorf("%s: %.2f allocs per 2k warm steps, want 0", pf, avg)
		}
	}
}

// TestRunWorkerModeAllocs pins the channel workers' shared parcel budget:
// once the engine is built, a worker-mode Run over 1M CFM records
// allocates at most 1.75 MiB at GOMAXPROCS 1, 2, 4 and 8. The budget is at
// most 12 parcels of 128 KiB (1.5 MiB), and the splitter reads into one
// 96 KiB chunk.
func TestRunWorkerModeAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const limit = 1.75 * (1 << 20)
	p := workloads.Catalog()[0]
	tr := p.Generate(1_000_000)
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		eng := New(DefaultConfig()) // prefetcher none, channel workers
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.RunStream(tr.Stream(), p.Abbr); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Errorf("GOMAXPROCS %d: Run allocated %.2f MiB, want at most %.2f",
				procs, float64(got)/(1<<20), limit/(1<<20))
		}
	}
}
