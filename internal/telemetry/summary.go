package telemetry

// Report embedding: Summary folds the registry into plain JSON-friendly
// values for metrics.Report and the obs artifact (schema v4). Histogram
// children are merged per family — exact for log₂ buckets — so the report
// carries the run-wide distribution; counters and gauges keep their label
// signature in the key so per-component values (tournament wins) survive.

// BucketCount is one non-empty histogram bucket in a summary: the
// inclusive upper bound as an exposition-style le string ("0", "1", "3",
// ..., "+Inf") and the plain (non-cumulative) count of observations in
// the bucket.
type BucketCount struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSummary is one merged histogram family: totals, interpolated
// quantiles, and the non-empty bucket vector.
type HistogramSummary struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Summary is the report-embeddable snapshot of a registry. Keys are
// metric names; counter and gauge keys carry a {label="value"} suffix
// when the child was registered with labels.
type Summary struct {
	Counters   map[string]uint64           `json:"counters,omitempty"`
	Gauges     map[string]int64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Summary snapshots the registry. Counter children with identical names
// but different labels (one per channel) are summed into the unlabeled
// name AND kept under their labeled key when a label other than channel
// is present, so per-component counters stay visible without four
// near-identical per-channel entries drowning the report.
// Returns nil on a nil registry (so the report field stays omitted).
func (r *Registry) Summary() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSummary{},
	}
	for _, f := range r.sortedFamilies() {
		children := f.sortedChildren()
		if len(children) == 0 {
			continue
		}
		switch f.typ {
		case TypeCounter:
			var total uint64
			for _, c := range children {
				total += c.counter.Value()
				if keepLabeledKey(c.labels) {
					s.Counters[f.name+braceSig(c.sig)] = c.counter.Value()
				}
			}
			s.Counters[f.name] = total
		case TypeGauge:
			for _, c := range children {
				s.Gauges[f.name+braceSig(c.sig)] = c.gauge.Value()
			}
		case TypeHistogram:
			var merged [HistBuckets]uint64
			var count, sum uint64
			for _, c := range children {
				b, n, sm := c.hist.snapshot()
				for i := range b {
					merged[i] += b[i]
				}
				count += n
				sum += sm
			}
			hs := HistogramSummary{Count: count, Sum: sum}
			if count > 0 {
				hs.P50 = quantileFromBuckets(merged, count, 0.50)
				hs.P90 = quantileFromBuckets(merged, count, 0.90)
				hs.P99 = quantileFromBuckets(merged, count, 0.99)
				for i, b := range merged {
					if b != 0 {
						hs.Buckets = append(hs.Buckets, BucketCount{LE: BucketLE(i), Count: b})
					}
				}
			}
			s.Histograms[f.name] = hs
		}
	}
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Gauges) == 0 {
		s.Gauges = nil
	}
	if len(s.Histograms) == 0 {
		s.Histograms = nil
	}
	return s
}

// keepLabeledKey reports whether a counter child's labeled value is worth
// keeping in the summary next to the family total. The channel label is
// aggregation detail; anything else (component, origin) is semantic.
func keepLabeledKey(labels []Label) bool {
	for _, l := range labels {
		if l.Key != "channel" {
			return true
		}
	}
	return false
}
