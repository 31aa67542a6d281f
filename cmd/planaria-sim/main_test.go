package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// runMainArg, as the first argument of a re-executed test binary, makes
// TestMain run the command with the arguments after it.
const runMainArg = "run-main"

// TestMain runs the command itself, in place of the tests, when runMain
// re-executes the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMainArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args in a child process and returns its
// exit code and standard error.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{runMainArg}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stderr.String()
}

// TestNegativeCountRefused: a negative -n exits 1 with an error naming the
// flag.
func TestNegativeCountRefused(t *testing.T) {
	if code, stderr := runMain(t, "-n", "-1"); code != 1 || !strings.Contains(stderr, "-n -1") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming -n", code, stderr)
	}
}

// TestDefaultGeometryIgnoresHost runs the engine configuration the default
// flags select at several GOMAXPROCS values: the host's core count must not
// choose the simulated system, so every run reports the same bytes. Only
// the record count is cut, to keep the test short.
func TestDefaultGeometryIgnoresHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p, ok := workloads.ByAbbr(*app)
	if !ok {
		t.Fatalf("default -app %q is not in the catalog", *app)
	}
	var want [sha256.Size]byte
	for i, procs := range []int{1, 4, 8, 16} {
		runtime.GOMAXPROCS(procs)
		cfg, err := engineConfig()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.New(cfg).Run(context.Background(), p.Stream(20_000), p.Abbr, *warmup)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(b); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: report digest %x, want %x (GOMAXPROCS 1)", procs, got[:6], want[:6])
		}
	}
}

// TestSubShardsFlagRefusesSharding: the deprecated -subshards flag accepts
// 0 and 1, and engineConfig refuses any larger value.
func TestSubShardsFlagRefusesSharding(t *testing.T) {
	defer func(v int) { *subshards = v }(*subshards)
	for _, c := range []struct {
		value int
		ok    bool
	}{{0, true}, {1, true}, {2, false}} {
		*subshards = c.value
		if _, err := engineConfig(); (err == nil) != c.ok {
			t.Errorf("-subshards %d: error %v, want ok=%v", c.value, err, c.ok)
		}
	}
}

// TestWriteChromeTraceKeepsFileOnFailure exports from an engine whose
// recorder keeps attribution but no event rings, which the exporter
// rejects: the export must fail and leave the file already at the path as
// it was.
func TestWriteChromeTraceKeepsFileOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	const old = `{"traceEvents":[]}`
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Events = &events.Config{RingSize: 0}
	if err := writeChromeTrace(path, sim.New(cfg), "CFM"); err == nil {
		t.Fatal("export without event rings succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != old {
		t.Fatalf("failed export changed the file to %q", got)
	}
}

// TestManifestRecordsClampedWarmup: the manifest records the warmup the
// run used, -warmup clamped to [0, 0.9].
func TestManifestRecordsClampedWarmup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	if code, stderr := runMain(t, "-app", "CFM", "-n", "2000", "-warmup", "5", "-json", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	art, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Manifest.Warmup != 0.9 {
		t.Fatalf("manifest warmup %v, want 0.9", art.Manifest.Warmup)
	}
	if got := art.Report.DemandReads + art.Report.DemandWrites; got != 200 {
		t.Fatalf("report covers %d records, want the 200 after a 0.9 warmup", got)
	}
}

// requireGzip fails the test unless path holds a complete, non-empty gzip
// stream, as a pprof profile is once written and closed.
func requireGzip(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("%s: %d bytes, %v; want a complete, non-empty gzip stream", path, n, err)
	}
}

// TestProfilesWrittenOnFailure: a run that fails after its profiles start
// (here its -json path lies under a regular file) exits 1 and still stops
// its CPU profile and writes its heap profile.
func TestProfilesWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	code, stderr := runMain(t, "-app", "CFM", "-n", "2000", "-json", filepath.Join(file, "out.json"),
		"-cpuprofile", cpu, "-memprofile", heap)
	if code != 1 {
		t.Fatalf("exit %d, stderr %q; want exit 1", code, stderr)
	}
	requireGzip(t, cpu)
	requireGzip(t, heap)
}

// TestKilledProfileLeavesNoFile: a run killed with SIGKILL while its CPU
// profile streams leaves no file at the -cpuprofile path, torn or empty,
// because the profile reaches that path only when the run stops it.
func TestKilledProfileLeavesNoFile(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	cmd := exec.Command(os.Args[0], runMainArg, "-app", "CFM", "-n", "100000000", "-cpuprofile", cpu)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The profile streams once a file for it, at the path or beside it,
	// exists.
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if files, _ := filepath.Glob(filepath.Join(dir, "*cpu.pprof*")); len(files) > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("the CPU profile never started")
		}
	}
	time.Sleep(100 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	if cmd.ProcessState.Exited() {
		t.Fatalf("the run ended (%v) before the kill", cmd.ProcessState)
	}
	if _, err := os.Stat(cpu); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("killed run left a file at %s: %v", cpu, err)
	}
}

// requireLiveViews fails the test unless dir holds the live views of a
// finished 2,000-record run: a metrics.prom that validates and counts the
// records, a progress.json that parses, and an attrib.json that parses.
func requireLiveViews(t *testing.T, dir string) {
	t.Helper()
	prom, err := os.ReadFile(filepath.Join(dir, obs.MetricsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateExposition(bytes.NewReader(prom)); err != nil {
		t.Fatalf("%s: %v", obs.MetricsFile, err)
	}
	if !bytes.Contains(prom, []byte("\nplanaria_run_records_total 2000\n")) {
		t.Fatalf("%s does not read planaria_run_records_total 2000", obs.MetricsFile)
	}
	var progress telemetry.Progress
	var attrib events.AttribSnapshot
	for name, v := range map[string]any{obs.ProgressFile: &progress, obs.AttribFile: &attrib} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if progress.Records != 2000 {
		t.Fatalf("%s: %d records, want 2000", obs.ProgressFile, progress.Records)
	}
}

// TestLiveViewsWritten: -live-dir leaves the live views of the finished
// run, and a run that exits 1 (its -json path lies under a regular file)
// still writes them.
func TestLiveViewsWritten(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		args []string
		code int
	}{
		"ok":     {nil, 0},
		"failed": {[]string{"-json", filepath.Join(file, "out.json")}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			live := filepath.Join(dir, name)
			args := append([]string{"-app", "CFM", "-n", "2000", "-attrib", "-live-dir", live}, c.args...)
			if code, stderr := runMain(t, args...); code != c.code {
				t.Fatalf("exit %d, stderr %q; want exit %d", code, stderr, c.code)
			}
			requireLiveViews(t, live)
		})
	}
}
