package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// small keeps integration tests tractable. The evaluation shapes (prefetcher
// ordering, breakdown shares) need enough revisit traffic to stabilise;
// 150k requests per app is the smallest scale at which they hold reliably.
func small() Options { return Options{Requests: 150_000, Warmup: 0.2} }

// TestCacheStudyUnknownPrefetcher: a cache variant naming no registered
// prefetcher fails with the registry's error instead of running.
func TestCacheStudyUnknownPrefetcher(t *testing.T) {
	variants := []CacheVariant{{"4MB+warp", 1 << 20, cache.LRU, "warp-drive"}}
	if _, err := CacheStudy(io.Discard, small(), variants); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

// TestSweepPartialOnError: a sweep with one broken prefetcher name still
// returns the completed cells next to the error instead of discarding the
// whole grid.
func TestSweepPartialOnError(t *testing.T) {
	opts := small()
	reps, err := Sweep([]string{"none", "warp-drive"}, opts)
	if err == nil {
		t.Fatal("unknown prefetcher accepted by Sweep")
	}
	if len(reps) == 0 {
		t.Fatal("partial sweep discarded the completed cells")
	}
	for app, cells := range reps {
		if _, ok := cells["warp-drive"]; ok {
			t.Fatalf("%s: failed cell present in partial results", app)
		}
		if _, ok := cells["none"]; !ok {
			t.Fatalf("%s: completed cell missing from partial results", app)
		}
	}
}

// TestSweepMatchesRunOne: the farm-backed Sweep and the serial runOne
// produce bit-identical reports for the same named configuration (repeat 0
// keeps the catalog seed, and both drive the same Engine.Run).
func TestSweepMatchesRunOne(t *testing.T) {
	opts := Options{Requests: 20_000, Warmup: 0.2}
	reps, err := Sweep([]string{"planaria"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := sim.NamedPrefetcher("planaria")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.NewPrefetcher = factory
	for _, abbr := range []string{"CFM", "Fort"} {
		p, _ := workloads.ByAbbr(abbr)
		direct, err := runOne(p, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := reps[abbr]["planaria"]
		if !reflect.DeepEqual(got, direct) {
			t.Fatalf("%s: farm-backed sweep diverged from runOne:\nfarm:   %+v\ndirect: %+v", abbr, got, direct)
		}
	}
}

// TestSweepJoinedErrors: a multi-cell failure reports every failed cell —
// each tagged with its cell key — in one joined error, not just the first
// scheduler-ordered loser, while the completed cells still come back.
func TestSweepJoinedErrors(t *testing.T) {
	reps, err := Sweep([]string{"none", "warp-drive", "hyper-lane"}, Options{Requests: 20_000, Warmup: 0.2})
	if err == nil {
		t.Fatal("unknown prefetchers accepted by Sweep")
	}
	msg := err.Error()
	// Every failed cell is identified: both bad prefetchers appear, keyed
	// by cell (spot-check two apps — one per bad prefetcher).
	for _, frag := range []string{"CFM/warp-drive", "CFM/hyper-lane", "PM/warp-drive"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("joined error missing cell %q:\n%s", frag, msg)
		}
	}
	if len(reps) != 10 {
		t.Fatalf("completed cells discarded: %d apps, want 10", len(reps))
	}
	for app, cells := range reps {
		if _, ok := cells["none"]; !ok {
			t.Fatalf("%s: completed cell missing from partial results", app)
		}
		if len(cells) != 1 {
			t.Fatalf("%s: failed cells leaked into results: %v", app, cells)
		}
	}
}

// TestRunAllPartialOnFig9Failure: when a Figure 9 cell fails, RunAll ends
// after Figure 8 and must hand back the completed Fig7 cells with the
// error instead of discarding them — cmd/experiments writes its artifacts
// from that map.
func TestRunAllPartialOnFig9Failure(t *testing.T) {
	oldSet := fig9Prefetchers
	fig9Prefetchers = []string{"none", "warp-drive"}
	defer func() { fig9Prefetchers = oldSet }()

	var buf bytes.Buffer
	reps, err := RunAll(&buf, Options{Requests: 20_000, Warmup: 0.2})
	if err == nil {
		t.Fatal("injected Fig9 failure did not surface")
	}
	if len(reps) != 10 {
		t.Fatalf("Fig7 sweep discarded on Fig9 failure: %d apps, want 10", len(reps))
	}
	for _, pf := range EvalPrefetchers {
		if _, ok := reps["CFM"][pf]; !ok {
			t.Fatalf("Fig7 report for CFM/%s missing from partial results", pf)
		}
	}
	if out := buf.String(); !strings.Contains(out, "Figure 8") || strings.Contains(out, "Figure 9") {
		t.Fatalf("want the output to end after Figure 8:\n%s", out)
	}
}

// TestProgressSweepThenFig9b: a sweep followed by Fig9b's own sweep on one
// progress registry ends with every processed record declared first —
// records equal expected, so progress.json never passes fraction 1.
func TestProgressSweepThenFig9b(t *testing.T) {
	reg := telemetry.NewRegistry()
	opts := Options{Requests: 2000, Warmup: 0.2, Progress: reg}
	if _, err := Sweep(EvalPrefetchers, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := Fig9b(io.Discard, opts); err != nil {
		t.Fatal(err)
	}
	records, expected := telemetry.RunProgress(reg)
	if records.Value() != 100_000 || expected.Value() != 100_000 {
		t.Fatalf("records %d, expected %d; want 100000 each", records.Value(), expected.Value())
	}
}

func TestFig4Bounds(t *testing.T) {
	avg := Fig4(io.Discard, small())
	if avg < 0.6 || avg > 1 {
		t.Fatalf("overlap average %.3f outside sane band", avg)
	}
}

func TestFig5MonotoneAndPositive(t *testing.T) {
	at4, at64 := Fig5(io.Discard, small())
	if at4 <= 0 || at64 < at4 {
		t.Fatalf("neighbour proportions broken: %.3f @4, %.3f @64", at4, at64)
	}
}

func TestFig7And8Shape(t *testing.T) {
	var buf bytes.Buffer
	reps, err := Fig7(&buf, small())
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 10 {
		t.Fatalf("expected 10 apps, got %d", len(reps))
	}
	// Core ordering claim on the mean: planaria has the highest hit rate
	// and the lowest AMAT of the four.
	mean := func(pf string, f func(app string) float64) float64 {
		s := 0.0
		for app := range reps {
			s += f(app)
		}
		return s / float64(len(reps))
	}
	hit := map[string]float64{}
	amat := map[string]float64{}
	for _, pf := range EvalPrefetchers {
		pf := pf
		hit[pf] = mean(pf, func(app string) float64 { return reps[app][pf].HitRate() })
		amat[pf] = mean(pf, func(app string) float64 { return reps[app][pf].AMAT })
	}
	// Scale-robust claims only: Planaria is best on both axes at any
	// trace length. The full BOP/SPP-vs-none orderings need the paper's
	// long traces and are validated by the full-scale experiment run
	// (EXPERIMENTS.md), not at this reduced test scale.
	if !(hit["planaria"] > hit["none"]) {
		t.Fatalf("planaria mean hit rate %.3f not above baseline %.3f", hit["planaria"], hit["none"])
	}
	for _, pf := range []string{"none", "bop", "spp"} {
		if amat["planaria"] >= amat[pf] {
			t.Fatalf("planaria mean AMAT %.1f not below %s's %.1f", amat["planaria"], pf, amat[pf])
		}
	}

	vsNone, _, vsSPP := Fig8(&buf, reps)
	if vsNone <= 0 || vsSPP <= 0 {
		t.Fatalf("planaria does not win: vsNone=%.3f vsSPP=%.3f", vsNone, vsSPP)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Figure 8") {
		t.Fatal("output missing headers")
	}
}

func TestFig9TLPDominatesFort(t *testing.T) {
	_, shares, err := Fig9(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's qualitative claim: TLP contributes most on Fort, so
	// Fort's SLP share must sit clearly below the all-app mean.
	mean := 0.0
	for _, s := range shares {
		mean += s
	}
	mean /= float64(len(shares))
	if shares["Fort"] >= mean {
		t.Fatalf("Fort SLP share %.2f not below the mean %.2f", shares["Fort"], mean)
	}
}

func TestFig10AndTrafficOrdering(t *testing.T) {
	reps, err := Sweep(EvalPrefetchers, small())
	if err != nil {
		t.Fatal(err)
	}
	// Scale-robust claim: Planaria's power and traffic overheads are far
	// below both baselines' (the BOP-vs-SPP gap needs full-scale traces).
	pl, bop, spp := Fig10(io.Discard, reps)
	if pl >= spp || pl >= bop {
		t.Fatalf("planaria power %.3f not below bop %.3f / spp %.3f", pl, bop, spp)
	}
	if pl > 0.03 {
		t.Fatalf("planaria power overhead %.3f exceeds 3%%", pl)
	}
	tBop, tSpp, tPl := TableTraffic(io.Discard, reps)
	if tPl >= tSpp || tPl >= tBop {
		t.Fatalf("planaria traffic %.3f not below bop %.3f / spp %.3f", tPl, tBop, tSpp)
	}
	if tPl > 0.10 {
		t.Fatalf("planaria traffic overhead %.3f exceeds 10%%", tPl)
	}
}

func TestTableIPCPositiveUplift(t *testing.T) {
	reps, err := Sweep(EvalPrefetchers, small())
	if err != nil {
		t.Fatal(err)
	}
	vsNone, _, vsSPP := TableIPC(io.Discard, reps)
	if vsNone <= 0 || vsSPP <= 0 {
		t.Fatalf("IPC uplift not positive: %.3f / %.3f", vsNone, vsSPP)
	}
}

func TestTableStorageNearPaper(t *testing.T) {
	kb, err := TableStorage(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if kb < 250 || kb > 450 {
		t.Fatalf("storage %.1f KB outside the paper's neighbourhood", kb)
	}
}

func TestTableStorageUnknownPrefetcher(t *testing.T) {
	if _, err := tableStorage(io.Discard, "warp-drive"); err == nil {
		t.Fatal("tableStorage accepted an unknown prefetcher instead of returning the registry error")
	}
}

func TestFig2ProducesTimeline(t *testing.T) {
	if n := Fig2(io.Discard, small()); n == 0 {
		t.Fatal("no accesses in the hottest page's timeline")
	}
}

func TestAblationCoordinatorDecoupledWins(t *testing.T) {
	reps, err := AblationCoordinator(io.Discard, small())
	if err != nil {
		t.Fatal(err)
	}
	// Decoupled coordination should not lose to the serial (monolithic)
	// coordinator on mean AMAT, and should beat parallel on accuracy.
	var dec, ser, decAcc, parAcc float64
	for _, m := range reps {
		dec += m[core.Decoupled].AMAT
		ser += m[core.Serial].AMAT
		decAcc += m[core.Decoupled].Accuracy()
		parAcc += m[core.Parallel].Accuracy()
	}
	if dec > ser*1.02 {
		t.Fatalf("decoupled mean AMAT %.1f worse than serial %.1f", dec, ser)
	}
	if decAcc < parAcc {
		t.Fatalf("decoupled accuracy %.3f below parallel %.3f", decAcc, parAcc)
	}
}

func TestAblationDistance(t *testing.T) {
	reps, err := AblationDistance(io.Discard, small(), []uint64{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	// A larger distance threshold gives TLP more donors: Fort (the
	// TLP-bound app) must not get worse going 4 → 64.
	f := reps["Fort"]
	if f[64].AMAT > f[4].AMAT*1.02 {
		t.Fatalf("Fort AMAT worse at d=64 (%.1f) than d=4 (%.1f)", f[64].AMAT, f[4].AMAT)
	}
}

func TestAblationPTSize(t *testing.T) {
	reps, err := AblationPTSize(io.Discard, small(), []int{512, 16384})
	if err != nil {
		t.Fatal(err)
	}
	for app, m := range reps {
		if m[512].StorageBits >= m[16384].StorageBits {
			t.Fatalf("%s: storage not increasing with PT size", app)
		}
		if m[16384].AMAT > m[512].AMAT*1.05 {
			t.Fatalf("%s: bigger PT clearly worse (%.1f vs %.1f)", app, m[16384].AMAT, m[512].AMAT)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	reps, err := Sweep([]string{"none", "planaria"}, Options{Requests: 20_000, Warmup: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, reps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+10*2 {
		t.Fatalf("csv has %d lines, want header + 20 rows", len(lines))
	}
	if !strings.HasPrefix(lines[0], "app,prefetcher,") {
		t.Fatalf("bad header %q", lines[0])
	}
	cols := strings.Count(lines[0], ",") + 1
	for i, l := range lines[1:] {
		if strings.Count(l, ",")+1 != cols {
			t.Fatalf("row %d has wrong column count: %q", i, l)
		}
	}
}

func TestCacheStudyClaim(t *testing.T) {
	// The capacity-vs-prefetching crossover needs more revisit traffic
	// than the other shape tests; 300k is the stable scale.
	amats, err := CacheStudy(io.Discard, Options{Requests: 300_000, Warmup: 0.2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	base := amats["4MB lru"]
	// Replacement policies buy only a few percent...
	for _, lbl := range []string{"4MB srrip", "4MB drrip"} {
		if amats[lbl] < base*0.90 {
			t.Fatalf("%s AMAT %.1f improves more than 10%% over LRU %.1f", lbl, amats[lbl], base)
		}
	}
	// ...while prefetching on the baseline cache beats doubled capacity
	// with the best policy.
	if amats["4MB+planaria"] >= amats["8MB drrip"] {
		t.Fatalf("planaria on 4MB (%.1f) does not beat 8MB drrip (%.1f)",
			amats["4MB+planaria"], amats["8MB drrip"])
	}
}

// runAllStdoutSHA256 is the SHA-256 of RunAll's output at 30,000 requests
// and warmup 0.2, taken when Figure 9 ran its own sweep and Figure 9b its
// own serial runs: rendering every table from one sweep moved no byte.
const runAllStdoutSHA256 = "dc66e87950c33981282da0265768626086089238d21943682a8ddc6efd7f69b8"

// TestRunAll: the full evaluation prints every figure, simulates each of
// its 60 cells (10 apps × the EvalSet and the two Figure 9 variants) once,
// and prints the bytes it always printed.
func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full runner in -short mode")
	}
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	const n = 30_000
	reps, err := RunAll(&buf, Options{Requests: n, Warmup: 0.2, Progress: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 10 {
		t.Fatalf("RunAll returned %d apps, want 10", len(reps))
	}
	for app, row := range reps {
		if len(row) != len(EvalPrefetchers) {
			t.Fatalf("%s: RunAll returned %d cells, want the %d EvalSet cells", app, len(row), len(EvalPrefetchers))
		}
	}
	for _, frag := range []string{"Figure 4", "Figure 5", "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Storage"} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("RunAll output missing %q", frag)
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != runAllStdoutSHA256 {
		t.Errorf("RunAll output SHA-256 %s, want %s", got, runAllStdoutSHA256)
	}
	records, expected := telemetry.RunProgress(reg)
	if want := 60 * n; records.Value() != uint64(want) || expected.Value() != int64(want) {
		t.Errorf("records %d, expected %d; want %d each (60 cells once)", records.Value(), expected.Value(), want)
	}
}
