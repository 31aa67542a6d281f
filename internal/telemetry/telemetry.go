// Package telemetry is a dependency-free, zero-cost-when-disabled metrics
// layer for long-lived runs: atomic counters, gauges and log₂-bucketed
// histograms behind a Registry that can render itself in the Prometheus
// text exposition format (WritePrometheus), fold into the run report as
// p50/p90/p99 summaries (Summary), and answer live quantile queries for
// the progress printer (Quantile).
//
// The design follows the repository's events.Sink pattern: instruments are
// registered once at engine construction, and a disabled run holds nil —
// every call site is gated by a single nil check, so the off path adds no
// allocations and no measurable cost. Histograms record each event through
// lock-free atomics; counters and gauges are published from the counts the
// engine keeps for its report, a batch of records at a time, so each fact
// is counted once (sim.Config.Telemetry). The engine registers one child
// per channel (label channel); exposition and summaries merge the
// children, which is exact for log₂ buckets.
//
// Instrument methods are additionally nil-receiver-safe, so partially
// wired components (a DRAM controller with telemetry off) degrade to
// no-ops rather than panics.
package telemetry

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Instrument types accepted by the Registry, matching the Prometheus
// exposition TYPE keywords.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// Label is one name="value" pair attached to a child instrument.
type Label struct {
	Key   string
	Value string
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value that may go up or down.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (which may be negative). No-op on a nil receiver.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current value (0 for a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// HistBuckets is the fixed bucket count of every Histogram: buckets
// 0..HistBuckets-2 hold values v with bits.Len64(v) == index (upper bound
// 2^index − 1, so bucket 0 is exactly v=0, bucket 1 exactly v=1, bucket 2
// is 2..3, ...), and the final bucket is the +Inf overflow. 2^26−1 ≈ 67M
// covers any cycle latency or queue depth the simulator produces.
const HistBuckets = 28

// Histogram is a fixed-shape log₂-bucketed histogram. Record is two
// uncontended atomic adds — cheap enough for per-request hot paths. The
// observation count is not stored separately: it is derived from the bucket
// vector at snapshot time, so `_count` can never disagree with the +Inf
// cumulative bucket in a mid-run scrape (a separate count atomic would race
// against the bucket reads and fail strict exposition validators).
type Histogram struct {
	buckets [HistBuckets]atomic.Uint64
	sum     atomic.Uint64
}

// Record adds one observation. No-op on a nil receiver.
func (h *Histogram) Record(v uint64) {
	if h == nil {
		return
	}
	i := bits.Len64(v)
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 for a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 for a nil receiver).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot atomically-ish loads the bucket vector (each bucket load is
// atomic; the vector as a whole is a point-in-time view, which is all a
// mid-run scrape can ask of lock-free instruments). The count is the bucket
// total, so it is internally consistent with the vector by construction.
func (h *Histogram) snapshot() (buckets [HistBuckets]uint64, count, sum uint64) {
	if h == nil {
		return
	}
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.sum.Load()
}

// bucketBounds returns the value range [lo, hi] covered by bucket i. The
// +Inf bucket reports hi = 2*lo as an interpolation anchor.
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 0
	}
	lo = float64(uint64(1) << (i - 1))
	if i == HistBuckets-1 {
		return lo, 2 * lo
	}
	return lo, float64((uint64(1) << i) - 1)
}

// BucketLE renders bucket i's inclusive upper bound as a Prometheus `le`
// label value: "0", "1", "3", "7", ... and "+Inf" for the overflow bucket.
func BucketLE(i int) string {
	if i >= HistBuckets-1 {
		return "+Inf"
	}
	return fmt.Sprintf("%d", (uint64(1)<<i)-1)
}

// quantileFromBuckets estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the first bucket whose cumulative count reaches
// rank q·count.
func quantileFromBuckets(buckets [HistBuckets]uint64, count uint64, q float64) float64 {
	if count == 0 {
		return 0
	}
	rank := q * float64(count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range buckets {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := bucketBounds(i)
			frac := (rank - prev) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	// Unreachable when count matches the buckets, but a torn mid-run
	// snapshot may undercount: fall back to the largest bound seen.
	_, hi := bucketBounds(HistBuckets - 1)
	return hi
}

// family is one metric family: a name, HELP text, a TYPE, and one child
// instrument per distinct label set.
type family struct {
	name     string
	help     string
	typ      string
	mu       sync.Mutex
	children map[string]*child // keyed by canonical label signature
}

type child struct {
	labels  []Label
	sig     string // canonical rendered label signature, exposition-ready
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// Registry holds metric families. The zero value is NOT usable; call
// NewRegistry. A nil *Registry is the "telemetry disabled" state: its
// registration methods return nil instruments, whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it with the given type and
// help on first use. Type conflicts panic: they are programming errors
// caught at engine construction, never at scrape time.
func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// child returns the family's child for the given labels, creating it on
// first use. Registration of the same (name, labels) pair is idempotent
// and returns the same instrument.
func (f *family) child(labels []Label) *child {
	sig := labelSignature(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[sig]
	if !ok {
		cp := make([]Label, len(labels))
		copy(cp, labels)
		c = &child{labels: cp, sig: sig}
		switch f.typ {
		case TypeCounter:
			c.counter = &Counter{}
		case TypeGauge:
			c.gauge = &Gauge{}
		case TypeHistogram:
			c.hist = &Histogram{}
		}
		f.children[sig] = c
	}
	return c
}

// Counter registers (or finds) the counter name{labels} and returns it.
// Returns nil on a nil registry — and nil instruments are safe no-ops.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeCounter).child(labels).counter
}

// Gauge registers (or finds) the gauge name{labels} and returns it.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeGauge).child(labels).gauge
}

// Histogram registers (or finds) the histogram name{labels} and returns
// it. Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.family(name, help, TypeHistogram).child(labels).hist
}

// Quantile merges the named histogram family's children and returns the
// q-quantile, with ok=false when the family is absent, empty or not a
// histogram. Safe to call mid-run from any goroutine, and on a nil
// registry (reports ok=false).
func (r *Registry) Quantile(name string, q float64) (v float64, ok bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil || f.typ != TypeHistogram {
		return 0, false
	}
	var merged [HistBuckets]uint64
	var count uint64
	f.mu.Lock()
	for _, c := range f.children {
		b, n, _ := c.hist.snapshot()
		for i := range b {
			merged[i] += b[i]
		}
		count += n
	}
	f.mu.Unlock()
	if count == 0 {
		return 0, false
	}
	return quantileFromBuckets(merged, count, q), true
}

// sortedFamilies returns the families in name order — the stable iteration
// order shared by exposition and summaries.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedChildren returns a family's children in label-signature order.
func (f *family) sortedChildren() []*child {
	f.mu.Lock()
	cs := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		cs = append(cs, c)
	}
	f.mu.Unlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].sig < cs[j].sig })
	return cs
}

// labelSignature renders labels in sorted-key order as a canonical,
// exposition-ready `k1="v1",k2="v2"` string ("" for no labels).
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the exposition-format label escapes.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
