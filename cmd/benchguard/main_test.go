package main

import (
	"math"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: repro/internal/sim
BenchmarkEngineStep-4        	      30	  45108086 ns/op	   2200000 req/s	 4315856 B/op	   15200 allocs/op
BenchmarkEngineStep-4        	      30	  45108086 ns/op	   2400000 req/s	 4315856 B/op	   15300 allocs/op
BenchmarkEngineStep-4        	      30	  45108086 ns/op	   2300000 req/s	 4315856 B/op	   15100 allocs/op
BenchmarkEngineStepParallel-4	      28	  41000000 ns/op	   2500000 req/s	 7151137 B/op	   15219 allocs/op
PASS
ok  	repro/internal/sim	10.0s
`

func TestParseBenchMedians(t *testing.T) {
	res, err := parseBench(strings.NewReader(benchOut), false)
	if err != nil {
		t.Fatal(err)
	}
	step, ok := res["EngineStep"]
	if !ok {
		t.Fatalf("EngineStep missing (got %v)", res)
	}
	if step.ReqPerS != 2300000 {
		t.Errorf("median req/s = %v, want 2300000", step.ReqPerS)
	}
	if step.AllocsPerOp != 15200 {
		t.Errorf("median allocs/op = %v, want 15200", step.AllocsPerOp)
	}
	if step.reqN != 3 || step.allocsN != 3 {
		t.Errorf("samples = %d req/s, %d allocs/op, want 3 each", step.reqN, step.allocsN)
	}
	par := res["EngineStepParallel"]
	if par.ReqPerS != 2500000 || par.reqN != 1 {
		t.Errorf("EngineStepParallel = %+v", par)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\n"), false); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// TestParseBenchBanded: the -repeats reduction is the mean with a Student-t
// 95% half-interval per metric; a single-sample benchmark keeps a zero-width
// band (N=1 has no dispersion estimate) and so gates exactly like a point.
func TestParseBenchBanded(t *testing.T) {
	res, err := parseBench(strings.NewReader(benchOut), true)
	if err != nil {
		t.Fatal(err)
	}
	step := res["EngineStep"]
	if step.ReqPerS != 2_300_000 {
		t.Errorf("mean req/s = %v, want 2300000", step.ReqPerS)
	}
	// Samples 2.2e6/2.3e6/2.4e6: std = 1e5, CI95 = 4.303·1e5/√3 ≈ 248435.
	if step.ReqCI95 < 240_000 || step.ReqCI95 > 260_000 {
		t.Errorf("req/s CI95 = %v, want ≈248435", step.ReqCI95)
	}
	if step.AllocsPerOp != 15_200 || step.AllocsCI95 <= 0 {
		t.Errorf("allocs band = %v±%v, want mean 15200 with a positive CI", step.AllocsPerOp, step.AllocsCI95)
	}
	par := res["EngineStepParallel"]
	if par.ReqCI95 != 0 || par.AllocsCI95 != 0 {
		t.Errorf("single-sample bands = %+v, want zero-width", par)
	}
}

// TestCompareBanded: with a confidence band, a gate fires only when the
// whole band clears the threshold — a mean just under the req/s floor whose
// band reaches back over it passes, a band entirely below fails, and the
// allocation ceiling mirrors that on the lower band edge. The
// allocation-free pin ignores the band: a zero-alloc path that allocates
// has regressed regardless of noise.
func TestCompareBanded(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep": {ReqPerS: 2_000_000, AllocsPerOp: 100},
	}}
	// Mean 4% below the 10% floor, band wide enough to reach it: pass.
	results := map[string]result{
		"EngineStep": {ReqPerS: 1_730_000, ReqCI95: 100_000, AllocsPerOp: 100, reqN: 5, allocsN: 5},
	}
	if _, failures := compare(base, results, 0.10, 0.15); len(failures) != 0 {
		t.Fatalf("band overlapping the floor failed: %v", failures)
	}
	// Whole band below the floor: fail, and the message shows the band.
	results["EngineStep"] = result{ReqPerS: 1_730_000, ReqCI95: 50_000, AllocsPerOp: 100, reqN: 5, allocsN: 5}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "±50000") {
		t.Fatalf("band fully below the floor not caught: %v", failures)
	}
	// Allocs mean above the ceiling but band reaching under it: pass; band
	// fully above: fail.
	results["EngineStep"] = result{ReqPerS: 2_000_000, AllocsPerOp: 118, AllocsCI95: 5, reqN: 5, allocsN: 5}
	if _, failures := compare(base, results, 0.10, 0.15); len(failures) != 0 {
		t.Fatalf("alloc band overlapping the ceiling failed: %v", failures)
	}
	results["EngineStep"] = result{ReqPerS: 2_000_000, AllocsPerOp: 130, AllocsCI95: 5, reqN: 5, allocsN: 5}
	if _, failures := compare(base, results, 0.10, 0.15); len(failures) != 1 {
		t.Fatalf("alloc band fully above the ceiling not caught: %v", failures)
	}
	// Allocation-free pin stays strict under a band.
	base.Benchmarks["HotPath"] = baselineEntry{AllocsPerOp: 0}
	results["HotPath"] = result{AllocsPerOp: 1, AllocsCI95: 3, reqN: 5, allocsN: 5}
	results["EngineStep"] = result{ReqPerS: 2_000_000, AllocsPerOp: 100, reqN: 5, allocsN: 5}
	_, failures = compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocation-free") {
		t.Fatalf("banded allocation-free violation not caught: %v", failures)
	}
}

// TestCompareZeroBaselines: a pinned 0 allocs/op means allocation-free —
// any measured allocation fails — and a 0 req/s pin is reported as
// informational rather than silently passing through the ratio arithmetic.
func TestCompareZeroBaselines(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"HotPath": {ReqPerS: 0, AllocsPerOp: 0},
	}}
	results := map[string]result{
		"HotPath": {ReqPerS: 100, AllocsPerOp: 3, reqN: 1, allocsN: 1},
	}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the allocation-free violation", failures)
	}
	if !strings.Contains(failures[0], "allocation-free") {
		t.Errorf("failure %q does not name the allocation-free pin", failures[0])
	}

	// Truly allocation-free output passes, and the zero req/s pin stays
	// visible as unpinned instead of vanishing.
	results["HotPath"] = result{ReqPerS: 100, AllocsPerOp: 0, reqN: 1, allocsN: 1}
	lines, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 0 {
		t.Fatalf("clean allocation-free run failed: %v", failures)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "no req/s pin") {
		t.Errorf("lines = %v, want the zero req/s pin flagged as informational", lines)
	}
}

// TestCompareRegression: the ordinary relative thresholds still fire.
func TestCompareRegression(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep": {ReqPerS: 2_000_000, AllocsPerOp: 100},
	}}
	results := map[string]result{
		"EngineStep": {ReqPerS: 1_500_000, AllocsPerOp: 130, reqN: 3, allocsN: 3},
	}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want req/s and allocs/op regressions", failures)
	}
	if _, f := compare(base, map[string]result{}, 0.10, 0.15); len(f) != 1 || !strings.Contains(f[0], "missing") {
		t.Errorf("missing benchmark not reported: %v", f)
	}
}

// TestCompareNaN: NaN in either column is a hard failure, never a silent
// pass (every comparison against NaN is false, so the threshold checks
// alone would wave it through).
func TestCompareNaN(t *testing.T) {
	nan := math.NaN()
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep": {ReqPerS: nan, AllocsPerOp: nan},
	}}
	results := map[string]result{
		"EngineStep": {ReqPerS: 2_000_000, AllocsPerOp: 100, reqN: 1, allocsN: 1},
	}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 2 {
		t.Fatalf("NaN baseline failures = %v, want both metrics flagged", failures)
	}
}

// TestCompareRelativeTo: a relative_to pin gates req/s against the named
// benchmark's measured value in the same run, not the absolute pin.
func TestCompareRelativeTo(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep":       {ReqPerS: 2_000_000, AllocsPerOp: 100},
		"EngineStepTraced": {ReqPerS: 1_900_000, AllocsPerOp: 110, RelativeTo: "EngineStep"},
	}}
	// The host is slower than the pinned absolute across the board, but the
	// traced run is within 10% of the untraced one: only the absolute pin
	// may fire, and here the untraced run stays inside its own tolerance.
	results := map[string]result{
		"EngineStep":       {ReqPerS: 1_850_000, AllocsPerOp: 100, reqN: 3, allocsN: 3},
		"EngineStepTraced": {ReqPerS: 1_800_000, AllocsPerOp: 110, reqN: 3, allocsN: 3},
	}
	lines, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 0 {
		t.Fatalf("within-overhead run failed: %v", failures)
	}
	found := false
	for _, l := range lines {
		if strings.Contains(l, "vs EngineStep") {
			found = true
		}
	}
	if !found {
		t.Errorf("relative comparison not reported: %v", lines)
	}

	// Traced falls more than 10% below untraced: the overhead gate fires
	// even though the traced absolute pin alone would pass.
	results["EngineStepTraced"] = result{ReqPerS: 1_600_000, AllocsPerOp: 110, reqN: 3, allocsN: 3}
	results["EngineStep"] = result{ReqPerS: 2_000_000, AllocsPerOp: 100, reqN: 3, allocsN: 3}
	_, failures = compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "overhead limit") {
		t.Fatalf("overhead regression not caught: %v", failures)
	}

	// The reference benchmark missing from the run is a hard failure — an
	// unanchored relative pin guards nothing.
	delete(results, "EngineStep")
	results["EngineStepTraced"] = result{ReqPerS: 1_900_000, AllocsPerOp: 110, reqN: 3, allocsN: 3}
	_, failures = compare(base, results, 0.10, 0.15)
	foundMissing := false
	for _, f := range failures {
		if strings.Contains(f, "relative baseline EngineStep missing") {
			foundMissing = true
		}
	}
	if !foundMissing {
		t.Fatalf("missing reference not reported: %v", failures)
	}
}

// TestCompareTolerance: a per-entry tolerance widens (or tightens) the
// req/s gate for that entry only, for both relative and absolute pins. The
// tournament is the motivating case: all components train on every access,
// so it legitimately sits far below the plain composite, and the default
// 10% overhead gate would make a relative pin impossible.
func TestCompareTolerance(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep": {ReqPerS: 2_000_000, AllocsPerOp: 100},
		"EngineStepTournament": {ReqPerS: 1_200_000, AllocsPerOp: 150,
			RelativeTo: "EngineStep", Tolerance: 0.45},
	}}
	// Tournament at 60% of EngineStep: inside its widened 45% gate, far
	// outside the default 10% one.
	results := map[string]result{
		"EngineStep":           {ReqPerS: 2_000_000, AllocsPerOp: 100, reqN: 3, allocsN: 3},
		"EngineStepTournament": {ReqPerS: 1_200_000, AllocsPerOp: 150, reqN: 3, allocsN: 3},
	}
	if _, failures := compare(base, results, 0.10, 0.15); len(failures) != 0 {
		t.Fatalf("within-tolerance run failed: %v", failures)
	}
	// Below the widened gate it still fires.
	results["EngineStepTournament"] = result{ReqPerS: 1_000_000, AllocsPerOp: 150, reqN: 3, allocsN: 3}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "overhead limit 45%") {
		t.Fatalf("tolerance gate did not fire: %v", failures)
	}
	// The per-entry tolerance never leaks onto other entries: the sibling
	// absolute pin keeps the global fraction.
	results["EngineStepTournament"] = result{ReqPerS: 1_200_000, AllocsPerOp: 150, reqN: 3, allocsN: 3}
	results["EngineStep"] = result{ReqPerS: 1_700_000, AllocsPerOp: 100, reqN: 3, allocsN: 3}
	_, failures = compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "EngineStep: req/s") {
		t.Fatalf("global gate lost: %v", failures)
	}
}

// TestCompareBytes: an entry that pins bytes_per_op fails on more than the
// growth fraction of B/op, on its band's lower edge under -repeats, and on
// output without the B/op column; an entry whose bytes_per_op is 0 is not
// gated on B/op.
func TestCompareBytes(t *testing.T) {
	res, err := parseBench(strings.NewReader(benchOut), false)
	if err != nil {
		t.Fatal(err)
	}
	if got := res["EngineStepParallel"]; got.BytesPerOp != 7_151_137 || got.bytesN != 1 {
		t.Fatalf("EngineStepParallel B/op = %v from %d samples, want 7151137 from 1", got.BytesPerOp, got.bytesN)
	}
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep":         {AllocsPerOp: 15_200, BytesPerOp: 3_800_000},
		"EngineStepParallel": {AllocsPerOp: 15_219},
	}}
	// EngineStep's 4315856 B/op is 13.6% above its pin: inside 15%.
	if _, failures := compare(base, res, 0.10, 0.15); len(failures) != 0 {
		t.Fatalf("B/op inside the limit failed: %v", failures)
	}
	// 4315856 is 16.0% above 3720000: outside 15%, and the message names B/op.
	base.Benchmarks["EngineStep"] = baselineEntry{AllocsPerOp: 15_200, BytesPerOp: 3_720_000}
	_, failures := compare(base, res, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "EngineStep: B/op 4315856 is 16.0% above") {
		t.Fatalf("B/op growth not caught: %v", failures)
	}
	// A band reaching back under the ceiling passes; one entirely above fails.
	res["EngineStep"] = result{AllocsPerOp: 15_200, BytesPerOp: 4_315_856, BytesCI95: 100_000, allocsN: 5, bytesN: 5}
	if _, failures := compare(base, res, 0.10, 0.15); len(failures) != 0 {
		t.Fatalf("B/op band overlapping the ceiling failed: %v", failures)
	}
	res["EngineStep"] = result{AllocsPerOp: 15_200, BytesPerOp: 4_315_856, BytesCI95: 10_000, allocsN: 5, bytesN: 5}
	if _, failures := compare(base, res, 0.10, 0.15); len(failures) != 1 {
		t.Fatalf("B/op band above the ceiling not caught: %v", failures)
	}
	// A pinned B/op with no B/op column fails instead of reading as 0.
	res["EngineStep"] = result{AllocsPerOp: 15_200, allocsN: 5}
	_, failures = compare(base, res, 0.10, 0.15)
	if len(failures) != 1 || !strings.Contains(failures[0], "no B/op samples") {
		t.Fatalf("missing B/op column not caught: %v", failures)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median = %v", m)
	}
}

// microOut is micro-benchmark output: the allocs/op column but no req/s.
const microOut = `BenchmarkCacheAccessHit-2   	25666430	        46.79 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheAccessHit-2   	25666430	        45.10 ns/op	       0 B/op	       0 allocs/op
BenchmarkCacheAccessHit-2   	25666430	        47.02 ns/op	       0 B/op	       0 allocs/op
`

// TestCompareMissingAllocs: an allocs/op pin, allocation-free or positive,
// fails when the output has no allocs/op column (a run without -benchmem),
// instead of reading the missing column as 0 allocations.
func TestCompareMissingAllocs(t *testing.T) {
	res, err := parseBench(strings.NewReader("BenchmarkEngineStep-2  30  45108086 ns/op  2200000 req/s\n"+
		"BenchmarkCacheAccessHit-2  25666430  46.79 ns/op\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep":     {ReqPerS: 2_000_000, AllocsPerOp: 340},
		"CacheAccessHit": {AllocsPerOp: 0},
	}}
	_, failures := compare(base, res, 0.10, 0.15)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want both allocs pins failed", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "no allocs/op samples") {
			t.Errorf("failure %q does not name the missing allocs/op column", f)
		}
	}
}

// TestCompareMissingReqPerS: a positive req/s pin and a relative_to pin
// fail when the benchmark printed no req/s, while a micro-benchmark whose
// req/s pin is 0 passes without the column.
func TestCompareMissingReqPerS(t *testing.T) {
	base := baseline{Benchmarks: map[string]baselineEntry{
		"EngineStep":       {ReqPerS: 2_000_000, AllocsPerOp: 100},
		"EngineStepTraced": {ReqPerS: 1_900_000, AllocsPerOp: 110, RelativeTo: "EngineStep"},
		"CacheAccessHit":   {AllocsPerOp: 0},
	}}
	results := map[string]result{
		"EngineStep":       {AllocsPerOp: 100, allocsN: 3},
		"EngineStepTraced": {AllocsPerOp: 110, allocsN: 3},
		"CacheAccessHit":   {AllocsPerOp: 0, allocsN: 3},
	}
	_, failures := compare(base, results, 0.10, 0.15)
	if len(failures) != 2 {
		t.Fatalf("failures = %v, want the absolute and the relative req/s pins failed", failures)
	}
	for _, f := range failures {
		if !strings.Contains(f, "no req/s samples") {
			t.Errorf("failure %q does not name the missing req/s column", f)
		}
	}
	// With the untraced run's req/s present, the relative pin still fails
	// on its own missing column, and the reference's column is not enough.
	results["EngineStep"] = result{ReqPerS: 2_000_000, AllocsPerOp: 100, reqN: 3, allocsN: 3}
	_, failures = compare(base, results, 0.10, 0.15)
	if len(failures) != 1 || !strings.HasPrefix(failures[0], "EngineStepTraced: no req/s samples") {
		t.Fatalf("failures = %v, want only the relative pin failed", failures)
	}
	// A reference with no req/s samples cannot anchor a relative pin.
	results["EngineStep"] = result{AllocsPerOp: 100, allocsN: 3}
	results["EngineStepTraced"] = result{ReqPerS: 1_900_000, AllocsPerOp: 110, reqN: 3, allocsN: 3}
	_, failures = compare(base, results, 0.10, 0.15)
	found := false
	for _, f := range failures {
		found = found || strings.Contains(f, "relative baseline EngineStep has unusable req/s")
	}
	if !found {
		t.Fatalf("failures = %v, want the unanchored relative pin reported", failures)
	}
}

// TestCompareMicroWithoutReqPerS: micro-benchmark output parses to zero
// req/s samples and three allocs/op samples, passes its allocation-free
// pin with no req/s pin, and its report line counts each metric's samples.
func TestCompareMicroWithoutReqPerS(t *testing.T) {
	res, err := parseBench(strings.NewReader(microOut), false)
	if err != nil {
		t.Fatal(err)
	}
	got := res["CacheAccessHit"]
	if got.reqN != 0 || got.allocsN != 3 {
		t.Fatalf("samples = %d req/s, %d allocs/op, want 0 and 3", got.reqN, got.allocsN)
	}
	base := baseline{Benchmarks: map[string]baselineEntry{"CacheAccessHit": {AllocsPerOp: 0}}}
	lines, failures := compare(base, res, 0.10, 0.15)
	if len(failures) != 0 {
		t.Fatalf("micro-benchmark without req/s failed: %v", failures)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "n=req:0,allocs:3") || !strings.Contains(lines[0], "no req/s pin") {
		t.Errorf("lines = %v, want per-metric sample counts and the unpinned req/s", lines)
	}
}
