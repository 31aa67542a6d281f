package sweepfarm_test

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sweepfarm"
	"repro/internal/telemetry"
)

// tiny keeps farm integration tests fast: the statistics machinery does
// not care about simulation scale, only the figure-shape tests elsewhere
// do.
const tinyRequests = 3000

func tinyConfig() sweepfarm.Config {
	return sweepfarm.Config{Requests: tinyRequests, Warmup: 0.2}
}

func tinyGrid(repeats int) sweepfarm.Grid {
	return sweepfarm.Grid{
		Apps:        []string{"CFM", "HoK"},
		Prefetchers: []string{"none", "stride"},
		Repeats:     repeats,
	}
}

func TestSeedForDeterministic(t *testing.T) {
	key := sweepfarm.CellKey{App: "CFM", Prefetcher: "planaria"}
	if got := sweepfarm.SeedFor(key, 0, 101); got != 101 {
		t.Fatalf("repeat 0 seed %d, want the catalog seed 101", got)
	}
	a := sweepfarm.SeedFor(key, 1, 101)
	b := sweepfarm.SeedFor(key, 1, 999) // base must not leak into derived seeds
	if a != b {
		t.Fatalf("derived seed depends on the base seed: %d vs %d", a, b)
	}
	if a == 101 || a == sweepfarm.SeedFor(key, 2, 101) {
		t.Fatal("derived seeds collide across repeats")
	}
	other := sweepfarm.CellKey{App: "HoK", Prefetcher: "planaria"}
	if sweepfarm.SeedFor(other, 1, 101) == a {
		t.Fatal("derived seeds collide across cells")
	}
	if a != sweepfarm.SeedFor(key, 1, 101) {
		t.Fatal("seed derivation not deterministic")
	}
	if a < 0 {
		t.Fatalf("derived seed %d negative", a)
	}
}

func TestConfigHashSensitivity(t *testing.T) {
	base := tinyConfig()
	h := base.Hash()
	if h != base.Hash() {
		t.Fatal("hash not deterministic")
	}
	mutations := []sweepfarm.Config{
		{Requests: tinyRequests + 1, Warmup: 0.2},
		{Requests: tinyRequests, Warmup: 0.3},
		{Requests: tinyRequests, Warmup: 0.2, SampleEvery: 500},
	}
	for i, m := range mutations {
		if m.Hash() == h {
			t.Fatalf("mutation %d did not change the hash", i)
		}
	}
	// The deprecated SubShards field is not part of the fingerprint.
	legacy := base
	legacy.SubShards = 1
	if legacy.Hash() != h {
		t.Fatal("SubShards 1 changed the hash")
	}
	// Warmup clamping: NaN and negatives normalise to 0 before hashing.
	nan := base
	nan.Warmup = math.NaN()
	neg := base
	neg.Warmup = -3
	if nan.Hash() != neg.Hash() {
		t.Fatal("degenerate warmups hash differently")
	}
}

func TestNewStat(t *testing.T) {
	st := sweepfarm.NewStat([]float64{1, 2, 3})
	if st.N != 3 || st.Mean != 2 {
		t.Fatalf("mean stat wrong: %+v", st)
	}
	if math.Abs(st.Std-1) > 1e-12 {
		t.Fatalf("std %v, want 1", st.Std)
	}
	// df=2 → t=4.303; CI = 4.303 * 1 / sqrt(3).
	want := 4.303 / math.Sqrt(3)
	if math.Abs(st.CI95-want) > 1e-9 {
		t.Fatalf("ci %v, want %v", st.CI95, want)
	}
	one := sweepfarm.NewStat([]float64{5})
	if one.N != 1 || one.Mean != 5 || one.Std != 0 || one.CI95 != 0 {
		t.Fatalf("single-sample stat wrong: %+v", one)
	}
	if z := sweepfarm.NewStat(nil); z.N != 0 {
		t.Fatalf("empty stat wrong: %+v", z)
	}
}

func TestGridValidate(t *testing.T) {
	cases := []struct {
		name string
		g    sweepfarm.Grid
	}{
		{"no prefetchers", sweepfarm.Grid{}},
		{"unknown app", sweepfarm.Grid{Apps: []string{"nope"}, Prefetchers: []string{"none"}}},
		{"unknown prefetcher", sweepfarm.Grid{Prefetchers: []string{"warp-drive"}}},
		{"dup app", sweepfarm.Grid{Apps: []string{"CFM", "CFM"}, Prefetchers: []string{"none"}}},
		{"dup prefetcher", sweepfarm.Grid{Prefetchers: []string{"none", "none"}}},
		{"dup variant", sweepfarm.Grid{Prefetchers: []string{"none"},
			Variants: []sweepfarm.Variant{{Name: "x"}, {Name: "x"}}}},
	}
	for _, tc := range cases {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := tinyGrid(3).Validate(); err != nil {
		t.Fatalf("valid grid rejected: %v", err)
	}
}

func TestLoadGrid(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.json")
	spec := `{
		"apps": ["CFM"],
		"prefetchers": ["none", "planaria"],
		"variants": [{"name": "fast", "requests": 1000, "warmup": 0}],
		"repeats": 2
	}`
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := sweepfarm.LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Repeats != 2 || len(g.Variants) != 1 || g.Variants[0].Name != "fast" {
		t.Fatalf("grid parsed wrong: %+v", g)
	}
	if g.Variants[0].Warmup == nil || *g.Variants[0].Warmup != 0 {
		t.Fatal("explicit zero warmup lost (pointer semantics broken)")
	}

	// A typoed knob must fail loudly, not run the default silently, and so
	// must the sub_shards variant knob, which no longer exists.
	for _, spec := range []string{
		`{"prefetchers":["none"],"repeat":3}`,
		`{"prefetchers":["none"],"variants":[{"name":"wide","sub_shards":2}]}`,
	} {
		bad := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(bad, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := sweepfarm.LoadGrid(bad); err == nil {
			t.Fatalf("unknown grid field accepted: %s", spec)
		}
	}
	if _, err := sweepfarm.LoadGrid(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing grid file accepted")
	}
}

// TestRunnerRepeatsAndAggregates: an R=3 grid completes every cell with
// three distinct seeds, repeat 0 reproduces the catalog-seeded run, and
// aggregates carry N=3 statistics for every metric.
func TestRunnerRepeatsAndAggregates(t *testing.T) {
	r := &sweepfarm.Runner{Grid: tinyGrid(3), Base: tinyConfig()}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 12 || res.Resumed != 0 || res.Failed != 0 {
		t.Fatalf("scheduling counts wrong: %+v", res)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("planned %d cells, want 4", len(res.Cells))
	}
	for _, c := range res.Cells {
		if !c.Complete() {
			t.Fatalf("cell %s incomplete", c.Key)
		}
		seeds := map[int64]bool{}
		for _, rep := range c.Repeats {
			if seeds[rep.Seed] {
				t.Fatalf("cell %s: duplicate seed %d", c.Key, rep.Seed)
			}
			seeds[rep.Seed] = true
		}
		for _, m := range sweepfarm.Metrics {
			st, ok := c.Agg[m]
			if !ok || st.N != 3 {
				t.Fatalf("cell %s metric %s: stat %+v", c.Key, m, st)
			}
			if math.IsNaN(st.Mean) {
				t.Fatalf("cell %s metric %s: NaN mean", c.Key, m)
			}
		}
	}

	// Repeat 0 must be the catalog-seeded point estimate: identical to a
	// fresh single-repeat run of the same cell.
	single := &sweepfarm.Runner{
		Grid: sweepfarm.Grid{Apps: []string{"CFM"}, Prefetchers: []string{"stride"}},
		Base: tinyConfig(),
	}
	sres, err := single.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var multi metrics.Report
	for _, c := range res.Cells {
		if c.Key.App == "CFM" && c.Key.Prefetcher == "stride" {
			multi = c.Repeats[0].Report
		}
	}
	if !reflect.DeepEqual(multi, sres.Cells[0].Repeats[0].Report) {
		t.Fatal("repeat 0 differs from a fresh catalog-seeded run")
	}
}

// TestRunnerInterruptResume is the resume-correctness pin (run under -race
// in CI): an R=3 grid is cancelled mid-flight after K jobs checkpoint,
// then a second runner over the same artifact directory executes only the
// missing jobs (counted both by the scheduler and by the run-progress
// series), and the final grouped CSV is byte-identical to an uninterrupted
// run of the same grid.
func TestRunnerInterruptResume(t *testing.T) {
	grid := tinyGrid(3)
	const totalJobs = 12

	// Reference: uninterrupted run.
	refDir := t.TempDir()
	ref := &sweepfarm.Runner{Grid: grid, Base: tinyConfig(), ArtifactDir: refDir}
	refRes, err := ref.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var refCSV bytes.Buffer
	if err := sweepfarm.WriteGroupedCSV(&refCSV, refRes); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after 4 jobs have checkpointed.
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int32
	first := &sweepfarm.Runner{
		Grid: grid, Base: tinyConfig(), ArtifactDir: dir, Workers: 2,
		JobDone: func(sweepfarm.Job, metrics.Report) {
			if done.Add(1) == 4 {
				cancel()
			}
		},
	}
	firstRes, err := first.Run(ctx)
	if err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("interruption not surfaced: %v", err)
	}
	checkpointed := firstRes.Executed
	if checkpointed < 4 || checkpointed >= totalJobs {
		t.Fatalf("interrupted run executed %d jobs, want a strict subset ≥ 4", checkpointed)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != checkpointed {
		t.Fatalf("%d artifacts on disk, %d jobs reported executed", len(files), checkpointed)
	}
	// Every checkpoint records its job's wall time; the resume below must
	// still accept them all (the field is provenance, not identity).
	for _, f := range files {
		art, err := obs.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if art.Manifest.WallTimeSec <= 0 {
			t.Fatalf("%s: wall_time_seconds = %v, want > 0", f.Name(), art.Manifest.WallTimeSec)
		}
	}

	// Resume: only the missing jobs may execute, counted by the runner
	// and cross-checked against the run-progress series — resumed jobs
	// count for neither records nor expected.
	reg := telemetry.NewRegistry()
	second := &sweepfarm.Runner{Grid: grid, Base: tinyConfig(), ArtifactDir: dir, Progress: reg}
	secondRes, err := second.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if secondRes.Resumed != checkpointed {
		t.Fatalf("resumed %d jobs, want %d", secondRes.Resumed, checkpointed)
	}
	if secondRes.Executed != totalJobs-checkpointed {
		t.Fatalf("executed %d jobs on resume, want %d", secondRes.Executed, totalJobs-checkpointed)
	}
	wantRecords := int64(secondRes.Executed) * tinyRequests
	if p := reg.Progress(time.Now()); p.Records != wantRecords || p.Total != wantRecords {
		t.Fatalf("progress %d/%d records, want %d/%d (only missing cells may run)",
			p.Records, p.Total, wantRecords, wantRecords)
	}

	// The resumed aggregate must be byte-identical to the uninterrupted
	// run.
	var resumedCSV bytes.Buffer
	if err := sweepfarm.WriteGroupedCSV(&resumedCSV, secondRes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refCSV.Bytes(), resumedCSV.Bytes()) {
		t.Fatalf("resumed aggregate differs from uninterrupted run:\n--- reference\n%s\n--- resumed\n%s",
			refCSV.String(), resumedCSV.String())
	}
}

// TestRunnerDriverChoiceInvisible runs one 6-job grid with 1, 4 and 16
// workers: every job inline, three inline then three on channel workers,
// and every job on channel workers. Sampling and warmup put barriers in
// both driver modes. The checkpoints, all but their timing fields, and the
// grouped CSV must be byte-identical, and no goroutine may outlive a run.
func TestRunnerDriverChoiceInvisible(t *testing.T) {
	grid := sweepfarm.Grid{Apps: []string{"CFM", "HoK", "Fort"}, Prefetchers: []string{"none", "planaria"}}
	base := sweepfarm.Config{Requests: tinyRequests, Warmup: 0.2, SampleEvery: 500}
	goroutines := runtime.NumGoroutine()
	var wantCSV []byte
	var wantArts map[string][]byte
	for _, workers := range []int{1, 4, 16} {
		dir := t.TempDir()
		r := &sweepfarm.Runner{Grid: grid, Base: base, ArtifactDir: dir, Workers: workers}
		res, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Executed != 6 {
			t.Fatalf("workers %d: executed %d jobs, want 6", workers, res.Executed)
		}
		var csvOut bytes.Buffer
		if err := sweepfarm.WriteGroupedCSV(&csvOut, res); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		arts := make(map[string][]byte, len(files))
		for _, f := range files {
			art, err := obs.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			art.Manifest.StartTime, art.Manifest.WallTimeSec = time.Time{}, 0
			if arts[f.Name()], err = json.Marshal(art); err != nil {
				t.Fatal(err)
			}
		}
		if wantArts == nil {
			wantCSV, wantArts = csvOut.Bytes(), arts
			continue
		}
		if !bytes.Equal(csvOut.Bytes(), wantCSV) {
			t.Errorf("workers %d: grouped CSV differs from 1 worker's:\n%s\n---\n%s", workers, csvOut.Bytes(), wantCSV)
		}
		if len(arts) != len(wantArts) {
			t.Fatalf("workers %d: %d checkpoints, want %d", workers, len(arts), len(wantArts))
		}
		for name, b := range arts {
			if !bytes.Equal(b, wantArts[name]) {
				t.Errorf("workers %d: checkpoint %s differs from 1 worker's", workers, name)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d live, %d before the runs", runtime.NumGoroutine(), goroutines)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunnerResumeStaleness: artifacts from a different configuration (or
// corrupted on disk) are re-executed, not trusted.
func TestRunnerResumeStaleness(t *testing.T) {
	dir := t.TempDir()
	grid := sweepfarm.Grid{Apps: []string{"CFM"}, Prefetchers: []string{"none"}, Repeats: 2}
	first := &sweepfarm.Runner{Grid: grid, Base: tinyConfig(), ArtifactDir: dir}
	if _, err := first.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Corrupt one artifact: only that job re-runs.
	files, err := filepath.Glob(filepath.Join(dir, "*_r0.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no r0 artifact found: %v", err)
	}
	if err := os.WriteFile(files[0], []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := &sweepfarm.Runner{Grid: grid, Base: tinyConfig(), ArtifactDir: dir}
	res, err := again.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 1 || res.Executed != 1 {
		t.Fatalf("corrupt artifact handling wrong: %+v", res)
	}

	// Same grid, different requests: nothing may resume (the re-run then
	// overwrites the checkpoints with the new configuration).
	changed := &sweepfarm.Runner{Grid: grid, Base: sweepfarm.Config{Requests: tinyRequests + 1, Warmup: 0.2}, ArtifactDir: dir}
	res, err = changed.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 || res.Executed != 2 {
		t.Fatalf("stale artifacts resumed: %+v", res)
	}
}

// TestRunnerRefusesSubShards: the deprecated Config.SubShards runs at 1 and
// fails the whole grid above 1, before any job runs.
func TestRunnerRefusesSubShards(t *testing.T) {
	for _, c := range []struct {
		subShards int
		ok        bool
	}{{1, true}, {2, false}} {
		base := tinyConfig()
		base.SubShards = c.subShards
		r := &sweepfarm.Runner{
			Grid: sweepfarm.Grid{Apps: []string{"CFM"}, Prefetchers: []string{"none"}},
			Base: base,
		}
		res, err := r.Run(context.Background())
		if (err == nil) != c.ok || (res != nil) != c.ok {
			t.Errorf("SubShards %d: result %v, error %v; want ok=%v", c.subShards, res != nil, err, c.ok)
		}
	}
}

// TestRunnerPartialOnUnresolvableCell: a grid naming an unknown prefetcher
// degrades per cell — the resolvable cells complete and the joined error
// names every failed job.
func TestRunnerPartialOnUnresolvableCell(t *testing.T) {
	r := &sweepfarm.Runner{
		Grid: sweepfarm.Grid{
			Apps:        []string{"CFM"},
			Prefetchers: []string{"none", "warp-drive"},
			Repeats:     2,
		},
		Base: tinyConfig(),
	}
	res, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	for _, frag := range []string{"CFM/warp-drive r0", "CFM/warp-drive r1"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("joined error missing %q:\n%v", frag, err)
		}
	}
	if res.Failed != 2 || res.Executed != 2 {
		t.Fatalf("scheduling counts wrong: %+v", res)
	}
	grid := res.ReportGrid("")
	if _, ok := grid["CFM"]["none"]; !ok {
		t.Fatal("completed cell missing from partial results")
	}
	if _, ok := grid["CFM"]["warp-drive"]; ok {
		t.Fatal("failed cell present in partial results")
	}
}

// TestOutputs: the text tables, LaTeX table and grouped CSV render a
// complete R=2 grid with CI annotations and consistent shapes.
func TestOutputs(t *testing.T) {
	r := &sweepfarm.Runner{Grid: tinyGrid(2), Base: tinyConfig()}
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	var txt bytes.Buffer
	sweepfarm.TableHitRate(&txt, res)
	sweepfarm.TableAMAT(&txt, res)
	sweepfarm.TablePower(&txt, res)
	out := txt.String()
	for _, frag := range []string{"Figure 7 (farm)", "Figure 8 (farm)", "Figure 10 (farm)", "±", "R=2", "CFM", "stride"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("text tables missing %q:\n%s", frag, out)
		}
	}

	var tex bytes.Buffer
	if err := sweepfarm.WriteLaTeX(&tex, res, "amat_cycles"); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`\begin{tabular}{lrr}`, `\pm`, `\end{tabular}`} {
		if !strings.Contains(tex.String(), frag) {
			t.Fatalf("latex missing %q:\n%s", frag, tex.String())
		}
	}
	if err := sweepfarm.WriteLaTeX(io.Discard, res, "nope"); err == nil {
		t.Fatal("unknown latex metric accepted")
	}

	var buf bytes.Buffer
	if err := sweepfarm.WriteGroupedCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1+4 {
		t.Fatalf("csv has %d rows, want header + 4 cells", len(rows))
	}
	wantCols := 4 + 3*len(sweepfarm.Metrics)
	for i, row := range rows {
		if len(row) != wantCols {
			t.Fatalf("csv row %d has %d columns, want %d", i, len(row), wantCols)
		}
	}
	if rows[1][3] != "2" {
		t.Fatalf("repeats column = %q, want 2", rows[1][3])
	}
}

// TestRunnerArtifactSchema: checkpoints carry the v3 provenance and
// validate under the standard artifact reader.
func TestRunnerArtifactSchema(t *testing.T) {
	dir := t.TempDir()
	r := &sweepfarm.Runner{
		Grid:        sweepfarm.Grid{Apps: []string{"CFM"}, Prefetchers: []string{"none"}, Repeats: 2},
		Base:        tinyConfig(),
		ArtifactDir: dir,
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	art, err := obs.ReadFile(filepath.Join(dir, "CFM_none_base_r1.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := art.Manifest
	if m.SchemaVersion != obs.SchemaVersion || m.Repeat != 1 || m.ConfigHash == "" {
		t.Fatalf("v3 provenance missing: %+v", m)
	}
	want := sweepfarm.SeedFor(sweepfarm.CellKey{App: "CFM", Prefetcher: "none"}, 1, 0)
	if m.Seed != want {
		t.Fatalf("seed %d, want derived %d", m.Seed, want)
	}
	if m.Workload != "CFM" || m.Prefetcher != "none" || m.Requests != tinyRequests {
		t.Fatalf("manifest run fields wrong: %+v", m)
	}
	if art.Report == nil || art.Report.Truncated {
		t.Fatal("artifact report missing or truncated")
	}
}

// FuzzLoadGrid: LoadGrid must never panic, and any grid it accepts must
// re-encode and re-load to an equal value.
func FuzzLoadGrid(f *testing.F) {
	f.Add([]byte(`{"apps":["CFM"],"prefetchers":["none","planaria"],` +
		`"variants":[{"name":"fast","requests":1000,"warmup":0,"sample_every":500}],"repeats":2}`))
	f.Add([]byte(`{"prefetchers":["none"],"repeat":3}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, in []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "grid.json")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Skip() // filesystem hiccup, not a parser property
		}
		g, err := sweepfarm.LoadGrid(path)
		if err != nil {
			return
		}
		enc, err := json.Marshal(g)
		if err != nil {
			t.Fatalf("accepted grid does not re-encode: %v", err)
		}
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Skip()
		}
		back, err := sweepfarm.LoadGrid(path)
		if err != nil {
			t.Fatalf("re-encoded grid rejected: %v\n%s", err, enc)
		}
		again, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("round trip changed the grid:\n%s\n---\n%s", enc, again)
		}
	})
}
