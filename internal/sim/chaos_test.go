package sim

// Chaos matrix for the streaming/parallel pipeline (ISSUE 4): fault kind ×
// serial/parallel × sampled/warmed, run under -race in CI. The contract
// pinned here: no goroutine leaks on any failure path, errors attributed to
// the earliest failing global record, partial reports marked Truncated, and
// a faultless fault wrapper bit-identical to the bare stream.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// checkGoroutines fails the test when the goroutine count has not settled
// back to the pre-run baseline shortly after a run returns — a leaked
// channel worker or splitter.
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, baseline %d\n%s",
				runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosMode is one sampling/warmup cell of the matrix.
type chaosMode struct {
	name        string
	sampleEvery uint64
	warmup      float64
}

var chaosModes = []chaosMode{
	{name: "plain"},
	{name: "sampled", sampleEvery: 2_500},
	{name: "warmed", sampleEvery: 2_500, warmup: 0.25},
}

// TestChaosMatrix drives every fault kind through serial and parallel,
// plain, sampled and warmed runs. Stream-ending faults must surface their
// error with the failure position attributed and a Truncated partial
// report; non-fatal faults (corruption, truncation, a lying length) must
// leave a complete, healthy run. Every cell must return the goroutine
// count to its baseline.
func TestChaosMatrix(t *testing.T) {
	const n = 12_000
	p := workloads.Catalog()[0]
	kinds := []faults.Kind{faults.Corrupt, faults.ErrAt, faults.Truncate, faults.MisLen}
	for _, kind := range kinds {
		for _, parallel := range []bool{false, true} {
			for _, mode := range chaosModes {
				name := fmt.Sprintf("%v/parallel=%v/%s", kind, parallel, mode.name)
				t.Run(name, func(t *testing.T) {
					f := faults.Plan(kind, 0xC0FFEE, n)
					base := runtime.NumGoroutine()
					eng := engineFor(t, "planaria", parallel, mode.sampleEvery)
					rep, err := eng.Run(context.Background(),
						faults.Wrap(p.Stream(n), f), p.Abbr, mode.warmup)
					if kind == faults.ErrAt {
						if !errors.Is(err, faults.ErrInjected) {
							t.Fatalf("err = %v, want ErrInjected", err)
						}
						if !rep.Truncated {
							t.Fatal("failed run returned a report not marked Truncated")
						}
						if rep.FailedAt != f.At {
							t.Fatalf("failure attributed to record %d, want %d", rep.FailedAt, f.At)
						}
					} else {
						if err != nil {
							t.Fatalf("%v fault must not fail the run: %v", kind, err)
						}
						if rep.Truncated {
							t.Fatal("healthy run marked Truncated")
						}
					}
					checkGoroutines(t, base)
				})
			}
		}
	}
}

// TestChaosCancellation: a cancelled context tears the run down — serial
// and parallel, mid-stall and pre-cancelled — returning ctx.Err() with a
// Truncated partial report and zero leaked goroutines.
func TestChaosCancellation(t *testing.T) {
	const n = 400_000
	p := workloads.Catalog()[1]
	for _, parallel := range []bool{false, true} {
		t.Run(fmt.Sprintf("mid-stall/parallel=%v", parallel), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The stream wedges for 250ms at record 10k; the cancel fires
			// during the stall, and the engine observes it at the next
			// chunk boundary.
			s := faults.Wrap(p.Stream(n),
				faults.Fault{Kind: faults.Stall, At: 10_000, StallFor: 250 * time.Millisecond})
			time.AfterFunc(25*time.Millisecond, cancel)
			rep, err := engineFor(t, "planaria", parallel, 0).Run(ctx, s, p.Abbr, 0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !rep.Truncated {
				t.Fatal("cancelled run returned a report not marked Truncated")
			}
			if rep.FailedAt < 0 || rep.FailedAt >= n {
				t.Fatalf("cancellation attributed to record %d, want before end of stream", rep.FailedAt)
			}
			checkGoroutines(t, base)
		})
		t.Run(fmt.Sprintf("pre-cancelled/parallel=%v", parallel), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			rep, err := engineFor(t, "planaria", parallel, 0).
				Run(ctx, p.Stream(n), p.Abbr, 0)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !rep.Truncated || rep.FailedAt != 0 {
				t.Fatalf("pre-cancelled run: Truncated=%v FailedAt=%d, want true/0",
					rep.Truncated, rep.FailedAt)
			}
			checkGoroutines(t, base)
		})
	}
}

// panicAfter is a prefetcher that panics on its channel's nth Train call
// and on every later one — a deterministic stand-in for a poisoned
// component inside a channel's unit. Because the component stays poisoned,
// a unit that stepped on after its first failure would fail again at a
// later record and move the attributed position. n <= 0 never panics.
type panicAfter struct {
	prefetch.None
	n    int
	seen int
}

func (p *panicAfter) Train(prefetch.Access) {
	p.seen++
	if p.n > 0 && p.seen >= p.n {
		panic(fmt.Sprintf("chaos: injected panic on train call %d", p.n))
	}
}

// nthOfChannel returns the global index of the nth (1-based) record of the
// given channel, or -1.
func nthOfChannel(tr trace.Trace, ch, n int) int64 {
	seen := 0
	for i, rec := range tr {
		if rec.Block().Channel() == ch {
			seen++
			if seen == n {
				return int64(i)
			}
		}
	}
	return -1
}

// TestChaosWorkerPanicRecovered: a panic inside a channel's unit must come
// back as an error attributed to the panicking record — and when two
// channels blow up, the earliest global position wins, exactly where a Step
// loop would have stopped — inline and on channel workers alike.
func TestChaosWorkerPanicRecovered(t *testing.T) {
	const n = 60_000
	p := workloads.Catalog()[0]
	tr := p.Generate(n)
	// Channel A dies on its 900th record, channel B on its 40th; B's is
	// the earlier global position.
	chA, chB := tr[0].Block().Channel(), -1
	for _, rec := range tr {
		if c := rec.Block().Channel(); c != chA {
			chB = c
			break
		}
	}
	if chB < 0 {
		t.Skip("single-channel trace")
	}
	posA, posB := nthOfChannel(tr, chA, 900), nthOfChannel(tr, chB, 40)
	want := posB
	if posA >= 0 && (want < 0 || posA < want) {
		want = posA
	}
	if want < 0 {
		t.Skip("trace too short for the armed panics")
	}

	for _, c := range []struct {
		name        string
		sampleEvery uint64
		parallel    bool
	}{
		{"sampleEvery=0", 0, true}, {"sampleEvery=2000", 2_000, true},
		{"inline/sampleEvery=0", 0, false}, {"inline/sampleEvery=2000", 2_000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := DefaultConfig()
			cfg.SampleEvery = c.sampleEvery
			cfg.ParallelChannels = c.parallel
			cfg.NewPrefetcher = func(ch int) prefetch.Prefetcher {
				switch ch {
				case chA:
					return &panicAfter{n: 900}
				case chB:
					return &panicAfter{n: 40}
				}
				return &panicAfter{}
			}
			rep, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("worker panic not surfaced as an error: %v", err)
			}
			if !rep.Truncated {
				t.Fatal("panicked run returned a report not marked Truncated")
			}
			if rep.FailedAt != want {
				t.Fatalf("panic attributed to record %d, want earliest failing record %d",
					rep.FailedAt, want)
			}
			checkGoroutines(t, base)
		})
	}
}

// TestChaosFirstRecordFault is the regression test for the splitter
// deadlock: a channel worker that dies on the very first record of its
// channel — with sampling enabled, so the splitter keeps scheduling
// barriers — must not wedge the splitter against the dead worker's bounded
// queue while the other workers barrier-wait. Before the drain-after-
// failure and panic-recovery fixes this hung; now it returns promptly with
// the failure attributed and no goroutines left behind.
func TestChaosFirstRecordFault(t *testing.T) {
	const n = 120_000
	p := workloads.Catalog()[2]
	tr := p.Generate(n)
	failCh := tr[0].Block().Channel()
	base := runtime.NumGoroutine()
	cfg := DefaultConfig()
	cfg.SampleEvery = 3_000
	cfg.ParallelChannels = true
	cfg.NewPrefetcher = func(ch int) prefetch.Prefetcher {
		if ch == failCh {
			return &panicAfter{n: 1}
		}
		return &panicAfter{}
	}
	done := make(chan struct{})
	var rep = struct {
		truncated bool
		failedAt  int64
		err       error
	}{}
	go func() {
		defer close(done)
		r, err := New(cfg).RunStream(tr.Stream(), p.Abbr)
		rep.truncated, rep.failedAt, rep.err = r.Truncated, r.FailedAt, err
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("first-record fault deadlocked the parallel splitter")
	}
	if rep.err == nil || !rep.truncated || rep.failedAt != 0 {
		t.Fatalf("first-record fault: err=%v truncated=%v failedAt=%d, want error/true/0",
			rep.err, rep.truncated, rep.failedAt)
	}
	checkGoroutines(t, base)
}

// TestFaultStreamTransparent is the acceptance bar for the wrapper itself:
// a no-fault faults.Stream must produce bit-identical reports to the bare
// stream — serial and parallel, plain and sampled+warmed.
func TestFaultStreamTransparent(t *testing.T) {
	const n = 18_000
	p := workloads.Catalog()[2]
	tr := p.Generate(n)
	for _, mode := range chaosModes {
		ref, err := engineFor(t, "planaria", false, mode.sampleEvery).
			Run(context.Background(), tr.Stream(), p.Abbr, mode.warmup)
		if err != nil {
			t.Fatal(err)
		}
		want := reportJSON(t, ref)
		for _, parallel := range []bool{false, true} {
			rep, err := engineFor(t, "planaria", parallel, mode.sampleEvery).
				Run(context.Background(), faults.Wrap(tr.Stream()), p.Abbr, mode.warmup)
			if err != nil {
				t.Fatalf("%s parallel=%v: %v", mode.name, parallel, err)
			}
			if got := reportJSON(t, rep); got != want {
				t.Errorf("%s parallel=%v: faultless wrapper diverges from bare stream\nbare:    %s\nwrapped: %s",
					mode.name, parallel, want, got)
			}
		}
	}
}

// TestClampWarmup table-tests the warmup clamp, in particular that NaN
// cannot slip through comparison-based clamping and poison the boundary
// arithmetic (int64(NaN * n) is undefined).
func TestClampWarmup(t *testing.T) {
	nan := func() float64 { var z float64; return z / z }()
	inf := func() float64 { var z float64; return 1 / z }()
	cases := []struct{ in, want float64 }{
		{nan, 0},
		{-1, 0},
		{0, 0},
		{0.5, 0.5},
		{1, 0.9},
		{2, 0.9},
		{inf, 0.9},
		{-inf, 0},
	}
	for _, c := range cases {
		if got := ClampWarmup(c.in); got != c.want {
			t.Errorf("ClampWarmup(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// End to end: a NaN warmup on a sized stream must behave exactly like
	// warmup 0, not corrupt the boundary.
	p := workloads.Catalog()[0]
	ref, err := engineFor(t, "planaria", false, 0).Run(context.Background(), p.Stream(5_000), p.Abbr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := engineFor(t, "planaria", false, 0).Run(context.Background(), p.Stream(5_000), p.Abbr, nan)
	if err != nil {
		t.Fatalf("NaN warmup failed the run: %v", err)
	}
	if reportJSON(t, rep) != reportJSON(t, ref) {
		t.Error("NaN warmup diverges from warmup 0")
	}
}
