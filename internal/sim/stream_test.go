package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// engineFor builds a fresh engine for one equivalence cell.
func engineFor(t *testing.T, pf string, parallel bool, sampleEvery uint64) *Engine {
	t.Helper()
	factory, err := NamedPrefetcher(pf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.SampleEvery = sampleEvery
	cfg.ParallelChannels = parallel
	return New(cfg)
}

// TestStreamSliceEquivalence is the streaming pipeline's determinism
// contract: for every catalog app under the paper's evaluated prefetchers,
// the parallel driver fed by the slice-backed stream, and both drivers fed
// by the generator stream, must produce reports bit-identical to the serial
// driver on the slice. Running it under -race (CI does) also exercises the
// splitter's synchronisation.
func TestStreamSliceEquivalence(t *testing.T) {
	const n = 15_000
	for _, p := range workloads.Catalog() {
		tr := p.Generate(n)
		for _, pf := range []string{"planaria", "bop", "spp"} {
			ref, err := engineFor(t, pf, false, 0).RunStream(tr.Stream(), p.Abbr)
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, ref)
			for _, parallel := range []bool{false, true} {
				for src, s := range map[string]trace.Stream{"slice": tr.Stream(), "generator": p.Stream(n)} {
					if src == "slice" && !parallel {
						continue // the reference itself
					}
					rep, err := engineFor(t, pf, parallel, 0).RunStream(s, p.Abbr)
					if err != nil {
						t.Fatal(err)
					}
					if got := reportJSON(t, rep); got != want {
						t.Errorf("%s/%s %s parallel=%v: report diverges from the serial slice run\nwant: %s\ngot:  %s",
							p.Abbr, pf, src, parallel, want, got)
					}
				}
			}
		}
	}
}

// TestStreamProducersEquivalence pins the three stream producers against
// each other: the generator-backed stream, the binary Reader-backed stream
// and the slice-backed stream of the same profile must all yield the same
// report as the serial slice run — so file replay, synthetic streaming and
// in-memory runs are interchangeable.
func TestStreamProducersEquivalence(t *testing.T) {
	const n = 20_000
	p := workloads.Catalog()[0]
	tr := p.Generate(n)
	want := reportJSON(t, mustRun(t, func(e *Engine) (metrics.Report, error) {
		return e.RunStream(tr.Stream(), p.Abbr)
	}))

	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if got := trace.RecordCount(int64(buf.Len())); got != n {
		t.Fatalf("RecordCount(%d) = %d, want %d", buf.Len(), got, n)
	}

	producers := map[string]func() trace.Stream{
		"slice":     func() trace.Stream { return tr.Stream() },
		"generator": func() trace.Stream { return p.Stream(n) },
		"reader": func() trace.Stream {
			return trace.NewReader(bytes.NewReader(buf.Bytes())).Stream().WithLen(n)
		},
	}
	for name, mk := range producers {
		for _, parallel := range []bool{false, true} {
			rep, err := engineFor(t, "planaria", parallel, 0).RunStream(mk(), p.Abbr)
			if err != nil {
				t.Fatalf("%s parallel=%v: %v", name, parallel, err)
			}
			if got := reportJSON(t, rep); got != want {
				t.Errorf("%s parallel=%v: report diverges from the serial slice run", name, parallel)
			}
		}
	}
}

// TestStreamSampledWarmEquivalence pins the on-the-fly window planning: a
// sampled (SampleEvery) warmed-up generator-streamed run must reproduce the
// serial slice run's report — including the full time series — bit-for-bit, serial and
// parallel, for both a mid-trace warmup boundary and the degenerate
// fractions 0 and 0.9+.
func TestStreamSampledWarmEquivalence(t *testing.T) {
	const n = 30_000
	p := workloads.Catalog()[1]
	tr := p.Generate(n)
	for _, warmup := range []float64{0, 0.25, 1.5} {
		ref, err := engineFor(t, "planaria", false, 6_000).Run(context.Background(), tr.Stream(), p.Abbr, warmup)
		if err != nil {
			t.Fatal(err)
		}
		want := reportJSON(t, ref)
		if warmup < 1 && ref.Series == nil {
			t.Fatalf("warmup %.2f: sampled reference run has no series", warmup)
		}
		for _, parallel := range []bool{false, true} {
			rep, err := engineFor(t, "planaria", parallel, 6_000).
				Run(context.Background(), p.Stream(n), p.Abbr, warmup)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, rep); got != want {
				t.Errorf("warmup %.2f parallel=%v: generator stream diverges from slice\nslice:  %s\nstream: %s",
					warmup, parallel, want, got)
			}
		}
	}
}

// TestStreamErrorPropagation: a decode failure mid-stream must surface from
// RunStream (serial and parallel) instead of being swallowed — the engine
// reports the stream's own error when no simulation error precedes it.
func TestStreamErrorPropagation(t *testing.T) {
	p := workloads.Catalog()[0]
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, p.Generate(9_000)); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()-7] // mid-record cut
	for _, parallel := range []bool{false, true} {
		s := trace.NewReader(bytes.NewReader(truncated)).Stream()
		_, err := engineFor(t, "planaria", parallel, 0).RunStream(s, p.Abbr)
		if err == nil {
			t.Fatalf("parallel=%v: truncated stream accepted", parallel)
		}
	}
}

// TestRunUnsizedWarmup: a warmup fraction on a stream of unknown length
// must fail loudly rather than silently skipping warmup.
func TestRunUnsizedWarmup(t *testing.T) {
	p := workloads.Catalog()[0]
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, p.Generate(1_000)); err != nil {
		t.Fatal(err)
	}
	unsized := trace.NewReader(bytes.NewReader(buf.Bytes())).Stream()
	_, err := engineFor(t, "planaria", true, 0).Run(context.Background(), unsized, p.Abbr, 0.2)
	if !errors.Is(err, ErrUnsizedWarmup) {
		t.Fatalf("unsized warmup: got %v, want ErrUnsizedWarmup", err)
	}
	// Warmup 0 on the same unsized stream is fine.
	if _, err := engineFor(t, "planaria", true, 0).Run(context.Background(),
		trace.NewReader(bytes.NewReader(buf.Bytes())).Stream(), p.Abbr, 0); err != nil {
		t.Fatalf("unsized warmup-0 run failed: %v", err)
	}
}

// mustRun runs f on a fresh planaria engine and fails the test on error.
func mustRun(t *testing.T, f func(*Engine) (metrics.Report, error)) metrics.Report {
	t.Helper()
	rep, err := f(engineFor(t, "planaria", false, 0))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
