package main

import (
	"fmt"
	"sort"
)

// quantile returns the p-quantile of xs by the "exclusive" method of
// Python's statistics.quantiles: the value at 1-based position p·(n+1) of
// the sorted samples, interpolated linearly between neighbours and
// extrapolated from the outermost pair when the position falls outside
// [1, n]. xs must not be empty.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0]
	}
	h := p * float64(n+1)
	j := int(h)
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	frac := h - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// median returns the middle of xs (the mean of the middle pair for even n).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailLadder lists the percentiles, in per mille, a tail can be reported at.
var tailLadder = []int{500, 800, 900, 950, 990, 999}

// tailPermille returns the highest percentile of tailLadder, in per mille,
// that has at least ten of n samples beyond it, or 0 when n < 20.
func tailPermille(n int) int {
	best := 0
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			best = p
		}
	}
	return best
}

// summary condenses one metric's samples.
type summary struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Tail    string    `json:"tail,omitempty"` // highest percentile with ≥10 samples beyond, e.g. "p80"
	TailVal float64   `json:"tail_value,omitempty"`
	Samples []float64 `json:"samples"`
}

// summarize builds the summary of a non-empty sample set.
func summarize(unit string, xs []float64) summary {
	s := summary{
		Unit: unit, N: len(xs), Samples: xs,
		Median: median(xs), Q1: quantile(xs, 0.25), Q3: quantile(xs, 0.75),
	}
	if p := tailPermille(len(xs)); p > 0 {
		s.Tail = fmt.Sprintf("p%g", float64(p)/10)
		s.TailVal = quantile(xs, float64(p)/1000)
	}
	return s
}
