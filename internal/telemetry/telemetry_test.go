package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help", Label{"channel", "0"})
	c.Add(1)
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent registration returns the same instrument.
	if again := r.Counter("test_total", "help", Label{"channel", "0"}); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels → different child.
	c1 := r.Counter("test_total", "help", Label{"channel", "1"})
	if c1 == c {
		t.Fatal("distinct labels shared a child")
	}
	g := r.Gauge("test_gauge", "help")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestNilRegistryAndInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "h")
	g := r.Gauge("x", "h")
	h := r.Histogram("x_cycles", "h")
	c.Add(1)
	c.Add(3)
	g.Set(1)
	h.Record(9)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if _, ok := r.Quantile("x_cycles", 0.5); ok {
		t.Fatal("nil registry answered a quantile")
	}
	if s := r.Summary(); s != nil {
		t.Fatalf("nil registry summary = %+v, want nil", s)
	}
	if err := WritePrometheus(&strings.Builder{}, r); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_cycles", "h")
	// v=0 → bucket 0 (le 0); v=1 → bucket 1 (le 1); v=2,3 → bucket 2
	// (le 3); v=255 → bucket 8 (le 255); v=256 → bucket 9 (le 511).
	for _, v := range []uint64{0, 1, 2, 3, 255, 256} {
		h.Record(v)
	}
	if h.Count() != 6 || h.Sum() != 0+1+2+3+255+256 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	b, _, _ := h.snapshot()
	want := map[int]uint64{0: 1, 1: 1, 2: 2, 8: 1, 9: 1}
	for i, n := range b {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// Overflow lands in the +Inf bucket.
	h.Record(math.MaxUint64)
	b, _, _ = h.snapshot()
	if b[HistBuckets-1] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", b[HistBuckets-1])
	}
}

func TestBucketLE(t *testing.T) {
	for i, want := range map[int]string{0: "0", 1: "1", 2: "3", 3: "7", HistBuckets - 1: "+Inf"} {
		if got := BucketLE(i); got != want {
			t.Errorf("BucketLE(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	r := NewRegistry()
	// Shard across two children like the engine does; Quantile merges.
	h0 := r.Histogram("lat_cycles", "h", Label{"channel", "0"})
	h1 := r.Histogram("lat_cycles", "h", Label{"channel", "1"})
	for i := 0; i < 50; i++ {
		h0.Record(100) // bucket le 127, range [64,127]
	}
	for i := 0; i < 50; i++ {
		h1.Record(1000) // bucket le 1023, range [512,1023]
	}
	p50, ok := r.Quantile("lat_cycles", 0.50)
	if !ok {
		t.Fatal("quantile not ok")
	}
	if p50 < 64 || p50 > 127 {
		t.Fatalf("p50 = %g, want within [64,127]", p50)
	}
	p99, _ := r.Quantile("lat_cycles", 0.99)
	if p99 < 512 || p99 > 1023 {
		t.Fatalf("p99 = %g, want within [512,1023]", p99)
	}
	if _, ok := r.Quantile("missing", 0.5); ok {
		t.Fatal("missing family answered")
	}
}

func TestWritePrometheusAndValidate(t *testing.T) {
	r := NewRegistry()
	r.Counter("demo_reads_total", "Demand reads.", Label{"channel", "0"}).Add(10)
	r.Counter("demo_reads_total", "Demand reads.", Label{"channel", "1"}).Add(20)
	r.Gauge("demo_depth", "Queue depth.").Set(3)
	h := r.Histogram("demo_lat_cycles", "Latency.", Label{"channel", "0"})
	h.Record(5)
	h.Record(300)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE demo_reads_total counter",
		`demo_reads_total{channel="0"} 10`,
		`demo_reads_total{channel="1"} 20`,
		"# TYPE demo_depth gauge",
		"demo_depth 3",
		"# TYPE demo_lat_cycles histogram",
		`demo_lat_cycles_bucket{channel="0",le="7"} 1`,
		`demo_lat_cycles_bucket{channel="0",le="+Inf"} 2`,
		`demo_lat_cycles_sum{channel="0"} 305`,
		`demo_lat_cycles_count{channel="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if err := ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition failed validation: %v", err)
	}
	// Families are emitted in sorted name order.
	if strings.Index(out, "demo_depth") > strings.Index(out, "demo_lat_cycles") {
		t.Error("families not sorted by name")
	}
}

func TestWritePrometheusEscapesLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", Label{"app", `we"ird\n` + "\n"}).Add(1)
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("escaped exposition invalid: %v\n%s", err, sb.String())
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"bad metric name":  "1bad_name 3\n",
		"missing value":    "good_name\n",
		"bad value":        "good_name notanumber\n",
		"bad TYPE":         "# TYPE t histogramm\n",
		"duplicate TYPE":   "# TYPE t counter\n# TYPE t counter\n",
		"TYPE after use":   "t 1\n# TYPE t counter\n",
		"unquoted label":   "t{a=b} 1\n",
		"bad label name":   `t{1a="b"} 1` + "\n",
		"non-cumulative":   "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing +Inf":     "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"missing _count":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\n",
		"count mismatch":   "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
		"bare hist sample": "# TYPE h histogram\nh 5\n",
	}
	for name, in := range cases {
		if err := ValidateExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted\n%s", name, in)
		}
	}
	// And a well-formed payload with timestamp + escapes passes.
	ok := "# HELP m help text\n# TYPE m gauge\nm{a=\"x\\\"y\\\\z\\n\"} 1.5 1700000000\n"
	if err := ValidateExposition(strings.NewReader(ok)); err != nil {
		t.Errorf("valid payload rejected: %v", err)
	}
}

func TestSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("wins_total", "h", Label{"component", "stride"}).Add(3)
	r.Counter("wins_total", "h", Label{"component", "markov"}).Add(7)
	r.Counter("reads_total", "h", Label{"channel", "0"}).Add(10)
	r.Counter("reads_total", "h", Label{"channel", "1"}).Add(5)
	r.Gauge("psel", "h").Set(-2)
	h := r.Histogram("lat_cycles", "h")
	for i := 0; i < 100; i++ {
		h.Record(64)
	}
	s := r.Summary()
	if s.Counters["wins_total"] != 10 {
		t.Fatalf("wins_total = %d", s.Counters["wins_total"])
	}
	if s.Counters[`wins_total{component="stride"}`] != 3 {
		t.Fatalf("labeled wins missing: %v", s.Counters)
	}
	// Pure channel-sharded counters fold into the total only.
	if s.Counters["reads_total"] != 15 {
		t.Fatalf("reads_total = %d", s.Counters["reads_total"])
	}
	if _, ok := s.Counters[`reads_total{channel="0"}`]; ok {
		t.Fatal("per-channel shard leaked into summary")
	}
	if s.Gauges["psel"] != -2 {
		t.Fatalf("psel = %d", s.Gauges["psel"])
	}
	hs := s.Histograms["lat_cycles"]
	if hs.Count != 100 || hs.Sum != 6400 {
		t.Fatalf("hist summary %+v", hs)
	}
	if hs.P50 < 64 || hs.P50 > 127 || hs.P99 < 64 || hs.P99 > 127 {
		t.Fatalf("quantiles %+v", hs)
	}
	if len(hs.Buckets) != 1 || hs.Buckets[0].LE != "127" || hs.Buckets[0].Count != 100 {
		t.Fatalf("buckets %+v", hs.Buckets)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for ch := 0; ch < 4; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			c := r.Counter("conc_total", "h", Label{"channel", fmt.Sprint(ch)})
			h := r.Histogram("conc_cycles", "h", Label{"channel", fmt.Sprint(ch)})
			for i := 0; i < 10_000; i++ {
				c.Add(1)
				h.Record(uint64(i))
			}
		}(ch)
	}
	// Scrape concurrently with the writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := WritePrometheus(&sb, r); err != nil {
				t.Error(err)
				return
			}
			if err := ValidateExposition(strings.NewReader(sb.String())); err != nil {
				t.Errorf("mid-run exposition invalid: %v", err)
				return
			}
			r.Quantile("conc_cycles", 0.99)
			r.Summary()
		}
	}()
	wg.Wait()
	s := r.Summary()
	if s.Counters["conc_total"] != 40_000 {
		t.Fatalf("conc_total = %d", s.Counters["conc_total"])
	}
	if s.Histograms["conc_cycles"].Count != 40_000 {
		t.Fatalf("hist count = %d", s.Histograms["conc_cycles"].Count)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{"debug": "DEBUG", "info": "INFO", "": "INFO", "WARN": "WARN", "error": "ERROR"} {
		lv, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lv.String() != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, lv, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, 0, true)
	lg.Info("hello", "run", "abc")
	if !strings.Contains(sb.String(), `"run":"abc"`) {
		t.Fatalf("json log: %s", sb.String())
	}
	sb.Reset()
	NewLogger(&sb, 0, false).Warn("text mode")
	if !strings.Contains(sb.String(), "level=WARN") {
		t.Fatalf("text log: %s", sb.String())
	}
	if id := NewRunID(); len(id) != 8 {
		t.Fatalf("run id %q", id)
	}
}
