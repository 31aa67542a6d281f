package main

import "testing"

// TestQuartilesMatchPython pins quantile to Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method the benchmark's
// spread check uses), including its extrapolation for tiny samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{2.5, 0.5, 9, 4, 4, 7.25, 1}, 1, 4, 7.25},
	} {
		got := []float64{quantile(c.xs, 0.25), median(c.xs), quantile(c.xs, 0.75)}
		want := []float64{c.q1, c.q2, c.q3}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, want)
				break
			}
		}
	}
	if got := median([]float64{42}); got != 42 {
		t.Errorf("median of one sample = %v", got)
	}
}

// TestTailPercentile pins the "highest percentile with at least ten samples
// beyond it" rule.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {19, 0}, {20, 500}, {49, 500}, {50, 800}, {80, 800}, {99, 800},
		{100, 900}, {200, 950}, {1000, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := make([]float64, 80)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize("ms", xs)
	beyond := 0
	for _, x := range xs {
		if x > s.TailVal {
			beyond++
		}
	}
	if s.Tail != "p80" || beyond != 16 {
		t.Errorf("80 samples: tail %s at %v with %d beyond, want p80 with 16", s.Tail, s.TailVal, beyond)
	}
}

// TestSelfTimes checks that a span's self time excludes its child spans and
// its per-call children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "run", ID: 1, Start: 0, End: 100},
		{Name: "chunk", ID: 2, Parent: 1, Start: 10, End: 90},
		{Name: "trace.decode", ID: 3, Parent: 2, Start: 10, End: 20},
		{Name: "sim.step", ID: 4, Parent: 2, Start: 20, End: 80, Calls: map[string]int64{"prefetch.train": 25}},
	}
	want := map[string]int64{"run": 20, "chunk": 10, "trace.decode": 10, "sim.step": 35, "prefetch.train": 25}
	got := selfTimes(spans, 0, len(spans))
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}
