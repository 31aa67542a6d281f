// Command benchguard compares `go test -bench` output against the pinned
// reference numbers in BENCH_baseline.json and fails (exit 1) on regression:
// more than 10 % lower req/s, or more than 15 % more allocs/op or — where
// an entry pins bytes_per_op — more B/op, by default.
// CI runs it after the bench job so performance regressions fail the build
// instead of silently accumulating (see docs/PERFORMANCE.md).
//
// Usage:
//
//	go test -bench=EngineStep -benchmem -count=5 -run='^$' ./internal/sim/ | tee bench.txt
//	go run ./cmd/benchguard -bench bench.txt -baseline BENCH_baseline.json
//
// Benchmarks present in the baseline but missing from the bench output are
// reported and fail the run (a silently-skipped guard is no guard);
// benchmarks in the output but not in the baseline are informational only.
// For the same reason a pinned metric with no samples fails: every entry
// pins allocs/op, so its benchmark must print that column (-benchmem or
// ReportAllocs), a positive bytes_per_op pin needs the B/op column, and a
// positive req/s pin or a relative_to pin needs the req/s column. Only an
// entry whose req_per_s is 0 may print no req/s, and only one whose
// bytes_per_op is 0 goes ungated on B/op.
//
// A baseline entry may set "relative_to": "<OtherBenchmark>"; its req/s is
// then gated against that benchmark's measured req/s in the same run rather
// than the pinned absolute — the host-independent way to bound an overhead,
// used to keep event tracing (EngineStepTraced) within 10% of the untraced
// engine (see docs/TRACING.md) and telemetry (EngineStepTelemetry) within
// 10% as well (see docs/OBSERVABILITY.md).
//
// With -repeats the -count samples are treated as seeded repeats: each
// benchmark reduces to its mean ± 95 % confidence half-interval (Student-t,
// the sweep farm's statistics) instead of the median, and a gate only fails
// when the whole band clears the threshold — mean + CI95 below a req/s
// floor, mean − CI95 above an allocs/op or B/op ceiling. One noisy sample on a
// loaded CI host widens the band instead of failing the build:
//
//	go test -bench=EngineStep -benchmem -count=5 -run='^$' ./internal/sim/ | tee bench.txt
//	go run ./cmd/benchguard -bench bench.txt -baseline BENCH_baseline.json -repeats
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sweepfarm"
)

type baselineEntry struct {
	ReqPerS     float64 `json:"req_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// BytesPerOp, when not 0, is gated like AllocsPerOp: the same growth
	// fraction, against the B/op column. An allocation-free entry (0
	// allocs/op) needs no B/op pin.
	BytesPerOp float64 `json:"bytes_per_op"`
	// RelativeTo names another benchmark in the same run: instead of the
	// absolute req/s pin (kept as documentation), the guard compares this
	// benchmark's measured req/s against the named one's measured req/s,
	// using the same slowdown tolerance. This pins an *overhead ratio* —
	// e.g. EngineStepTraced must stay within 10% of EngineStep — which
	// holds across hosts of different absolute speed, where a fixed req/s
	// pin would not.
	RelativeTo string `json:"relative_to,omitempty"`
	// Tolerance, when > 0, overrides the global -max-slowdown fraction for
	// this entry's req/s gate (absolute or relative). It expresses pins
	// whose expected gap differs from the default 10% — e.g. the
	// four-way tournament trains every component on every access, so it
	// legitimately runs well below the plain composite and is pinned at a
	// wider ratio against EngineStep instead of being left ungated.
	Tolerance float64 `json:"tolerance,omitempty"`
}

type baseline struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
}

// result is one benchmark's reduction across -count runs: the median point
// estimate by default, or — under -repeats — the mean with its 95 %
// confidence half-intervals (zero CI fields mean "point estimate", which
// degrades every band gate to the exact point comparison). reqN, allocsN
// and bytesN count each metric's samples; 0 means the column was missing,
// and the metric's value is then meaningless.
type result struct {
	ReqPerS     float64
	AllocsPerOp float64
	BytesPerOp  float64
	ReqCI95     float64
	AllocsCI95  float64
	BytesCI95   float64
	reqN        int
	allocsN     int
	bytesN      int
}

func main() {
	benchPath := flag.String("bench", "bench.txt", "captured `go test -bench` output")
	basePath := flag.String("baseline", "BENCH_baseline.json", "pinned reference numbers")
	maxSlowdown := flag.Float64("max-slowdown", 0.10, "fail when req/s drops below baseline by more than this fraction")
	maxAllocGrowth := flag.Float64("max-alloc-growth", 0.15, "fail when allocs/op, or B/op where the baseline pins it, exceeds baseline by more than this fraction")
	repeats := flag.Bool("repeats", false, "treat the -count samples as seeded repeats: reduce each benchmark by mean instead of median and gate on the mean±CI95 band (Student-t, the sweep farm's statistics) so one noisy sample widens the interval instead of failing the build")
	flag.Parse()

	base, err := readBaseline(*basePath)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(*benchPath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	results, err := parseBench(f, *repeats)
	if err != nil {
		fatal(err)
	}

	lines, failures := compare(base, results, *maxSlowdown, *maxAllocGrowth)
	for _, l := range lines {
		fmt.Println(l)
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchguard: %d regression(s):\n", len(failures))
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: all benchmarks within tolerance")
}

// compare checks every pinned benchmark against the measured reductions and
// returns the human-readable report lines plus the list of failures. Zero
// baselines get explicit semantics instead of vanishing into ratio
// arithmetic: a 0 allocs/op baseline means "this path must stay
// allocation-free", so any allocation at all fails (a relative threshold on
// zero would either pass everything or divide to Inf/NaN); a 0 req/s
// baseline cannot express a meaningful slowdown bound, so the benchmark is
// reported as unpinned-for-throughput rather than silently passing.
//
// Results carrying confidence half-intervals (the -repeats reduction) are
// gated on the band edge nearest the pass region: req/s fails only when
// mean + CI95 is still below the floor, allocs/op only when mean − CI95 is
// still above the ceiling. Point estimates have zero-width bands, so the
// gates reduce to the plain comparisons. The allocation-free pin stays
// strict either way — a zero-alloc path that allocates has regressed no
// matter how noisy the timing was. B/op is gated like allocs/op, with the
// same growth fraction, on the entries that pin it.
//
// A metric a gate needs but the output lacks fails instead of reading as
// 0, which would pass every allocs/op pin. Each report line ends with the
// sample count per metric.
func compare(base baseline, results map[string]result, maxSlowdown, maxAllocGrowth float64) (lines, failures []string) {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := results[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from bench output", name))
			continue
		}
		slowdown := maxSlowdown
		if want.Tolerance > 0 {
			slowdown = want.Tolerance
		}
		status := "ok"
		switch {
		case math.IsNaN(got.ReqPerS) || math.IsNaN(want.ReqPerS):
			failures = append(failures, fmt.Sprintf("%s: req/s is NaN (measured %v, baseline %v)",
				name, got.ReqPerS, want.ReqPerS))
			status = "FAIL"
		case got.reqN == 0 && (want.RelativeTo != "" || want.ReqPerS != 0):
			failures = append(failures, fmt.Sprintf("%s: no req/s samples for a pinned req/s", name))
			status = "FAIL"
		case want.RelativeTo != "":
			// Relative pin: compare against the referenced benchmark's
			// measured req/s from the same run, so the gate expresses an
			// overhead bound instead of an absolute speed.
			ref, ok := results[want.RelativeTo]
			switch {
			case !ok:
				failures = append(failures, fmt.Sprintf("%s: relative baseline %s missing from bench output",
					name, want.RelativeTo))
				status = "FAIL"
			case ref.reqN == 0 || math.IsNaN(ref.ReqPerS) || ref.ReqPerS == 0:
				failures = append(failures, fmt.Sprintf("%s: relative baseline %s has unusable req/s %v",
					name, want.RelativeTo, ref.ReqPerS))
				status = "FAIL"
			case got.ReqPerS+got.ReqCI95 < ref.ReqPerS*(1-slowdown):
				failures = append(failures, fmt.Sprintf("%s: req/s %.0f%s is %.1f%% below %s's %.0f (overhead limit %.0f%%)",
					name, got.ReqPerS, bandSuffix(got.ReqCI95), 100*(1-got.ReqPerS/ref.ReqPerS), want.RelativeTo, ref.ReqPerS, 100*slowdown))
				status = "FAIL"
			default:
				status = fmt.Sprintf("ok (%.1f%% vs %s)", 100*(1-got.ReqPerS/ref.ReqPerS), want.RelativeTo)
			}
		case want.ReqPerS == 0:
			status = "no req/s pin"
		case got.ReqPerS+got.ReqCI95 < want.ReqPerS*(1-slowdown):
			failures = append(failures, fmt.Sprintf("%s: req/s %.0f%s is %.1f%% below baseline %.0f (limit %.0f%%)",
				name, got.ReqPerS, bandSuffix(got.ReqCI95), 100*(1-got.ReqPerS/want.ReqPerS), want.ReqPerS, 100*slowdown))
			status = "FAIL"
		}
		switch {
		case math.IsNaN(got.AllocsPerOp) || math.IsNaN(want.AllocsPerOp):
			failures = append(failures, fmt.Sprintf("%s: allocs/op is NaN (measured %v, baseline %v)",
				name, got.AllocsPerOp, want.AllocsPerOp))
			status = "FAIL"
		case got.allocsN == 0:
			failures = append(failures, fmt.Sprintf("%s: no allocs/op samples for a pinned allocs/op (run with -benchmem)", name))
			status = "FAIL"
		case want.AllocsPerOp == 0 && got.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f on a pinned allocation-free baseline",
				name, got.AllocsPerOp))
			status = "FAIL"
		case want.AllocsPerOp > 0 && got.AllocsPerOp-got.AllocsCI95 > want.AllocsPerOp*(1+maxAllocGrowth):
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f%s is %.1f%% above baseline %.0f (limit %.0f%%)",
				name, got.AllocsPerOp, bandSuffix(got.AllocsCI95), 100*(got.AllocsPerOp/want.AllocsPerOp-1), want.AllocsPerOp, 100*maxAllocGrowth))
			status = "FAIL"
		}
		switch {
		case want.BytesPerOp == 0:
		case math.IsNaN(got.BytesPerOp) || math.IsNaN(want.BytesPerOp):
			failures = append(failures, fmt.Sprintf("%s: B/op is NaN (measured %v, baseline %v)",
				name, got.BytesPerOp, want.BytesPerOp))
			status = "FAIL"
		case got.bytesN == 0:
			failures = append(failures, fmt.Sprintf("%s: no B/op samples for a pinned B/op (run with -benchmem)", name))
			status = "FAIL"
		case got.BytesPerOp-got.BytesCI95 > want.BytesPerOp*(1+maxAllocGrowth):
			failures = append(failures, fmt.Sprintf("%s: B/op %.0f%s is %.1f%% above baseline %.0f (limit %.0f%%)",
				name, got.BytesPerOp, bandSuffix(got.BytesCI95), 100*(got.BytesPerOp/want.BytesPerOp-1), want.BytesPerOp, 100*maxAllocGrowth))
			status = "FAIL"
		}
		lines = append(lines, fmt.Sprintf("%-30s req/s %12.0f%s (base %12.0f)  allocs/op %8.0f (base %8.0f)  B/op %10.0f (base %10.0f)  n=%s  %s",
			name, got.ReqPerS, bandSuffix(got.ReqCI95), want.ReqPerS, got.AllocsPerOp, want.AllocsPerOp, got.BytesPerOp, want.BytesPerOp, got.counts(), status))
	}
	extra := make([]string, 0, len(results))
	for name := range results {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		got := results[name]
		lines = append(lines, fmt.Sprintf("%-30s req/s %12.0f                      allocs/op %8.0f                 B/op %10.0f                   n=%s  (no baseline)",
			name, got.ReqPerS, got.AllocsPerOp, got.BytesPerOp, got.counts()))
	}
	return lines, failures
}

// counts renders the per-metric sample counts of a report line.
func (r result) counts() string {
	return fmt.Sprintf("req:%d,allocs:%d,bytes:%d", r.reqN, r.allocsN, r.bytesN)
}

func readBaseline(path string) (baseline, error) {
	var b baseline
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.Benchmarks) == 0 {
		return b, fmt.Errorf("%s: no benchmarks pinned", path)
	}
	return b, nil
}

// bandSuffix renders a "±CI" suffix for results that carry a confidence
// half-interval, and nothing for point estimates.
func bandSuffix(ci float64) string {
	if ci <= 0 {
		return ""
	}
	return fmt.Sprintf("±%.0f", ci)
}

// parseBench extracts per-benchmark reductions from `go test -bench` output.
// Each line is "BenchmarkName-P  N  <value unit>...": the GOMAXPROCS suffix
// and the Benchmark prefix are stripped so names match the baseline keys,
// and repeated lines (-count) are reduced by median per metric — or, when
// banded, by mean plus the Student-t 95 % confidence half-interval
// (sweepfarm.NewStat, the same statistics the sweep farm reports).
func parseBench(r interface{ Read([]byte) (int, error) }, banded bool) (map[string]result, error) {
	type samples struct{ req, allocs, bytes []float64 }
	acc := map[string]*samples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		s := acc[name]
		if s == nil {
			s = &samples{}
			acc[name] = s
		}
		// fields[1] is the iteration count; after it come value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "req/s":
				s.req = append(s.req, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			case "B/op":
				s.bytes = append(s.bytes, v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]result, len(acc))
	for name, s := range acc {
		r := result{reqN: len(s.req), allocsN: len(s.allocs), bytesN: len(s.bytes)}
		if banded {
			req, allocs, bytes := sweepfarm.NewStat(s.req), sweepfarm.NewStat(s.allocs), sweepfarm.NewStat(s.bytes)
			r.ReqPerS, r.ReqCI95 = req.Mean, req.CI95
			r.AllocsPerOp, r.AllocsCI95 = allocs.Mean, allocs.CI95
			r.BytesPerOp, r.BytesCI95 = bytes.Mean, bytes.CI95
		} else {
			r.ReqPerS, r.AllocsPerOp, r.BytesPerOp = median(s.req), median(s.allocs), median(s.bytes)
		}
		out[name] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
