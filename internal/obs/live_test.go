package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/events"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// readView reads one live view from dir.
func readView(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLiveViews pins the progress and attribution views and the directory
// they leave: progress.json reads the run-progress series, attrib.json the
// attribution snapshot, nothing but the three views is left behind, and a
// later Write rewrites them with later counts.
func TestLiveViews(t *testing.T) {
	reg := telemetry.NewRegistry()
	records, expected := telemetry.RunProgress(reg)
	expected.Add(1000)
	records.Add(250)
	rec := events.NewRecorder(addr.Channels, 0)
	b := addr.PageNum(7).Block(0)
	rec.Channel(0).Emit(events.Event{Kind: events.KindIssue, Block: b, Origin: events.OriginSLP})
	rec.Channel(0).Emit(events.Event{Kind: events.KindFill, Block: b, Origin: events.OriginSLP})
	rec.Channel(0).Emit(events.Event{Kind: events.KindUsed, Block: b, Origin: events.OriginSLP})

	dir := filepath.Join(t.TempDir(), "live") // the writer creates it
	v, err := NewLiveViews(dir, LiveConfig{
		Telemetry: reg, Recorder: rec,
		Tool: "test", Workload: "CFM", Prefetcher: "planaria",
	})
	if err != nil {
		t.Fatal(err)
	}

	type labelledProgress struct {
		Tool       string `json:"tool"`
		Workload   string `json:"workload"`
		Prefetcher string `json:"prefetcher"`
		telemetry.Progress
	}
	var prog labelledProgress
	if err := json.Unmarshal(readView(t, dir, ProgressFile), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Tool != "test" || prog.Workload != "CFM" || prog.Prefetcher != "planaria" ||
		prog.Records != 250 || prog.Total != 1000 || prog.Fraction != 0.25 {
		t.Fatalf("progress %+v", prog)
	}

	var snap events.AttribSnapshot
	if err := json.Unmarshal(readView(t, dir, AttribFile), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Origins) != 1 || snap.Origins[0].Origin != "slp" || snap.Origins[0].Used != 1 {
		t.Fatalf("attrib snapshot %+v", snap)
	}

	records.Add(750)
	rec.Channel(1).Emit(events.Event{Kind: events.KindIssue, Block: addr.PageNum(9).Block(0), Origin: events.OriginTLP})
	if err := v.Write(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if got, want := strings.Join(names, " "), strings.Join([]string{AttribFile, MetricsFile, ProgressFile}, " "); got != want {
		t.Errorf("directory holds %s, want %s", got, want)
	}
	prog = labelledProgress{}
	if err := json.Unmarshal(readView(t, dir, ProgressFile), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Records != 1000 || prog.Fraction != 1 {
		t.Errorf("rewritten progress %+v, want 1000 records, fraction 1", prog)
	}
	snap = events.AttribSnapshot{}
	if err := json.Unmarshal(readView(t, dir, AttribFile), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Origins) != 2 || snap.Origins[1].Origin != "tlp" || snap.Origins[1].Issued != 1 {
		t.Errorf("rewritten attrib snapshot %+v, want the TLP issue", snap)
	}
}

// TestLiveViewsMetrics pins metrics.prom: a populated registry, run
// progress included, is written in valid Prometheus text format with each
// family declared once, and a later Write rewrites it with later counts.
func TestLiveViewsMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(42)
	reg.Histogram("test_latency_cycles", "Latency.").Record(100)
	records, expected := telemetry.RunProgress(reg)
	records.Add(250)
	expected.Add(1000)

	dir := t.TempDir()
	v, err := NewLiveViews(dir, LiveConfig{Telemetry: reg, Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}

	body := string(readView(t, dir, MetricsFile))
	for _, want := range []string{
		"test_ops_total 42",
		"test_latency_cycles_count 1",
		"planaria_run_records_total 250",
		"planaria_run_records_expected 1000",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("%s missing %q", MetricsFile, want)
		}
	}
	if n := strings.Count(body, "# TYPE planaria_run_records_total "); n != 1 {
		t.Errorf("%d TYPE lines for planaria_run_records_total, want 1", n)
	}
	if strings.Contains(body, "planaria_run_req_per_s") {
		t.Error("req/s is rate() of the records counter, not a family")
	}
	if err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}

	records.Add(750)
	if err := v.Write(); err != nil {
		t.Fatal(err)
	}
	if body := readView(t, dir, MetricsFile); !bytes.Contains(body, []byte("planaria_run_records_total 1000\n")) {
		t.Errorf("rewritten %s does not read 1000 records:\n%s", MetricsFile, body)
	}
}

// TestLiveViewsNilSources: a view whose source is nil is not written, and
// a directory that cannot be created fails NewLiveViews.
func TestLiveViewsNilSources(t *testing.T) {
	for _, c := range []struct {
		cfg  LiveConfig
		want []string
	}{
		{LiveConfig{Tool: "bare"}, nil},
		{LiveConfig{Telemetry: telemetry.NewRegistry()}, []string{MetricsFile, ProgressFile}},
		{LiveConfig{Recorder: events.NewRecorder(addr.Channels, 0)}, []string{AttribFile}},
	} {
		dir := t.TempDir()
		if _, err := NewLiveViews(dir, c.cfg); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if strings.Join(got, " ") != strings.Join(c.want, " ") {
			t.Errorf("%+v wrote %v, want %v", c.cfg, got, c.want)
		}
	}

	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewLiveViews(filepath.Join(file, "live"), LiveConfig{Telemetry: telemetry.NewRegistry()}); err == nil {
		t.Fatal("NewLiveViews under a regular file succeeded")
	}
}

// TestEveryStopIdempotent: stop ends the ticks, waits for one in progress,
// and may be called again; Every with no ticks starts nothing.
func TestEveryStopIdempotent(t *testing.T) {
	var first, second atomic.Int64
	stop := Every(time.Millisecond, func() { first.Add(1) }, func() { second.Add(1) })
	for second.Load() < 3 {
		time.Sleep(time.Millisecond)
	}
	stop()
	n := second.Load()
	if first.Load() != n {
		t.Fatalf("ticks ran %d and %d times, want the same count", first.Load(), n)
	}
	time.Sleep(10 * time.Millisecond)
	if second.Load() != n {
		t.Fatal("a tick ran after stop returned")
	}
	stop() // second stop must neither panic nor block
	Every(time.Millisecond)()
}

// TestLiveViewsLiveRun is the recorder's mid-run pattern under -race: one
// producer per channel, as the engine runs them, emits events into 64-slot
// rings and advances the progress series while the views are rewritten and
// read back in a loop. The views written after the producers finish count
// every issue exactly, and the overwritten ring slots as drops.
func TestLiveViewsLiveRun(t *testing.T) {
	const perChannel = 5_000
	reg := telemetry.NewRegistry()
	records, expected := telemetry.RunProgress(reg)
	expected.Add(int64(addr.Channels) * perChannel)
	rec := events.NewRecorder(addr.Channels, 64)
	dir := t.TempDir()
	v, err := NewLiveViews(dir, LiveConfig{Telemetry: reg, Recorder: rec, Tool: "live"})
	if err != nil {
		t.Fatal(err)
	}

	var producers sync.WaitGroup
	for ch := 0; ch < addr.Channels; ch++ {
		producers.Add(1)
		go func(ch int) {
			defer producers.Done()
			sink := rec.Channel(ch)
			b := addr.PageNum(ch * 64).Block(0)
			for i := 0; i < perChannel; i++ {
				sink.Emit(events.Event{Kind: events.KindIssue, Cycle: uint64(i), Block: b, Origin: events.OriginTLP})
				if i%100 == 99 {
					records.Add(100)
				}
			}
			records.Add(perChannel % 100)
		}(ch)
	}
	stop := make(chan struct{})
	written := make(chan error, 1)
	go func() { // the writer, rewriting and reading back while the producers run
		read := func(name string, check func([]byte) error) error {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err == nil {
				err = check(b)
			}
			return err
		}
		for {
			var prog telemetry.Progress
			var snap events.AttribSnapshot
			for _, err := range []error{
				v.Write(),
				read(MetricsFile, func(b []byte) error { return telemetry.ValidateExposition(bytes.NewReader(b)) }),
				read(ProgressFile, func(b []byte) error { return json.Unmarshal(b, &prog) }),
				read(AttribFile, func(b []byte) error { return json.Unmarshal(b, &snap) }),
			} {
				if err != nil {
					written <- err
					return
				}
			}
			select {
			case <-stop:
				written <- nil
				return
			default:
			}
		}
	}()
	producers.Wait()
	close(stop)
	if err := <-written; err != nil {
		t.Fatal(err)
	}

	if err := v.Write(); err != nil {
		t.Fatal(err)
	}
	var prog telemetry.Progress
	if err := json.Unmarshal(readView(t, dir, ProgressFile), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.Records != int64(addr.Channels)*perChannel || prog.Fraction != 1 {
		t.Fatalf("progress %+v", prog)
	}
	var snap events.AttribSnapshot
	if err := json.Unmarshal(readView(t, dir, AttribFile), &snap); err != nil {
		t.Fatal(err)
	}
	var issued uint64
	for _, o := range snap.Origins {
		issued += o.Issued
	}
	if issued != uint64(addr.Channels)*perChannel {
		t.Fatalf("attributed %d issues, want %d", issued, uint64(addr.Channels)*perChannel)
	}
	if snap.DroppedEvents == 0 {
		t.Fatal("64-slot rings under 5k events dropped nothing")
	}
}

// TestMetricsScrapeLiveRun is the mid-run pattern under -race: an engine
// steps on its channel workers, recording into the sharded instruments and
// the attribution counters, while the live views are rewritten in a loop
// and every metrics.prom is read back and validated against the exposition
// grammar.
func TestMetricsScrapeLiveRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := sim.DefaultConfig()
	factory, err := sim.NamedPrefetcher("planaria")
	if err != nil {
		t.Fatal(err)
	}
	cfg.NewPrefetcher = factory
	cfg.Telemetry = reg
	cfg.Events = &events.Config{RingSize: 64}
	if !cfg.ParallelChannels {
		t.Fatal("the default engine no longer steps on channel workers")
	}
	eng := sim.New(cfg)
	dir := t.TempDir()
	v, err := NewLiveViews(dir, LiveConfig{Telemetry: reg, Recorder: eng.Events(), Tool: "live"})
	if err != nil {
		t.Fatal(err)
	}

	p := workloads.Catalog()[0]
	const n = 400_000
	runErr := make(chan error, 1)
	go func() {
		_, err := eng.RunStream(p.Stream(n), p.Abbr)
		runErr <- err
	}()

	// Rewrite and read back until the run completes (a fast host may only
	// fit a write or two mid-run; the -race CI leg slows the run enough
	// for many).
	writes := 0
	for done := false; !done; {
		select {
		case err := <-runErr:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		if err := v.Write(); err != nil {
			t.Fatal(err)
		}
		writes++
		if err := telemetry.ValidateExposition(bytes.NewReader(readView(t, dir, MetricsFile))); err != nil {
			t.Errorf("write %d: %s invalid: %v", writes, MetricsFile, err)
		}
		var snap events.AttribSnapshot
		if err := json.Unmarshal(readView(t, dir, AttribFile), &snap); err != nil {
			t.Errorf("write %d: %s: %v", writes, AttribFile, err)
		}
	}

	// The last write, after the run, reflects all of it.
	var progress telemetry.Progress
	if err := json.Unmarshal(readView(t, dir, ProgressFile), &progress); err != nil {
		t.Fatal(err)
	}
	if progress.Records != n || progress.Total != n {
		t.Fatalf("progress %d/%d records, want %d/%d", progress.Records, progress.Total, n, n)
	}
	if progress.P99DemandLatCycles <= 0 {
		t.Errorf("progress p99 = %v, want a positive live reading", progress.P99DemandLatCycles)
	}
	if !bytes.Contains(readView(t, dir, MetricsFile), []byte("planaria_demand_reads_total")) {
		t.Error("final metrics missing demand read counters")
	}
	var snap events.AttribSnapshot
	if err := json.Unmarshal(readView(t, dir, AttribFile), &snap); err != nil {
		t.Fatal(err)
	}
	var issued uint64
	for _, o := range snap.Origins {
		issued += o.Issued
	}
	if issued == 0 {
		t.Fatal("final attribution snapshot counts no issued prefetch")
	}
}
