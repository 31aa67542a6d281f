package main

import (
	"bytes"
	"compress/gzip"
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

	"repro/internal/experiments"
	"repro/internal/obs"
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

// TestNonPositiveCountRefused: -n must be positive; 0 and below exit 1
// with an error naming the flag.
func TestNonPositiveCountRefused(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		if code, stderr := runMain(t, "-n", n, "-run", "fig2"); code != 1 || !strings.Contains(stderr, "-n "+n) {
			t.Errorf("-n %s: exit %d, stderr %q; want exit 1 naming -n", n, code, stderr)
		}
	}
}

// TestWarmupZeroCountsEveryRecord: -warmup 0 disables warmup, so every
// cell reports every generated record.
func TestWarmupZeroCountsEveryRecord(t *testing.T) {
	const n = 2000
	path := filepath.Join(t.TempDir(), "fig7.json")
	if code, stderr := runMain(t, "-n", "2000", "-warmup", "0", "-run", "fig7", "-json", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	art, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(art.Cells) == 0 {
		t.Fatal("artifact has no cells")
	}
	for _, c := range art.Cells {
		if got := c.Report.DemandReads + c.Report.DemandWrites; got != n {
			t.Errorf("%s/%s: %d records reported, want %d", c.App, c.Prefetcher, got, n)
		}
	}
}

// TestDefaultGeometryIgnoresHost runs one cell under the options the
// default flags select at several GOMAXPROCS values: the host's core count
// must not choose the simulated system, so every run reports the same
// bytes. Only the record count is cut, to keep the test short.
func TestDefaultGeometryIgnoresHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := workloads.Catalog()[0]
	var want [sha256.Size]byte
	for i, procs := range []int{1, 4, 8, 16} {
		runtime.GOMAXPROCS(procs)
		opts, err := runOptions()
		if err != nil {
			t.Fatal(err)
		}
		opts.Requests = 20_000
		rep, err := experiments.RunOne(p, "planaria", opts)
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
// 0 and 1, and runOptions refuses any larger value.
func TestSubShardsFlagRefusesSharding(t *testing.T) {
	defer func(v int) { *subshards = v }(*subshards)
	for _, c := range []struct {
		value int
		ok    bool
	}{{0, true}, {1, true}, {2, false}} {
		*subshards = c.value
		if _, err := runOptions(); (err == nil) != c.ok {
			t.Errorf("-subshards %d: error %v, want ok=%v", c.value, err, c.ok)
		}
	}
}

// writeGrid writes a one-cell farm grid and returns its path.
func writeGrid(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(`{"apps":["CFM"],"prefetchers":["none"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFarmWritesHeapProfile: -memprofile writes its heap profile in farm
// mode too.
func TestFarmWritesHeapProfile(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "heap.pprof")
	if code, stderr := runMain(t, "-n", "2000", "-grid", writeGrid(t), "-memprofile", prof); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if fi, err := os.Stat(prof); err != nil || fi.Size() == 0 {
		t.Fatalf("farm run wrote no heap profile: %v", err)
	}
}

// TestFarmRefusesJSON: the farm writes no combined artifact, so -json in
// farm mode exits 1 naming the flag, before anything runs.
func TestFarmRefusesJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	code, stderr := runMain(t, "-n", "2000", "-grid", writeGrid(t), "-json", path)
	if code != 1 || !strings.Contains(stderr, "-json") {
		t.Fatalf("exit %d, stderr %q; want exit 1 naming -json", code, stderr)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("refused run left %s behind: %v", path, err)
	}
}

// TestManifestRecordsClampedWarmup: the manifest records the warmup the
// run used, -warmup clamped to [0, 0.9].
func TestManifestRecordsClampedWarmup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig4.json")
	if code, stderr := runMain(t, "-n", "2000", "-run", "fig4", "-warmup", "5", "-json", path); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	art, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Manifest.Warmup != 0.9 {
		t.Fatalf("manifest warmup %v, want 0.9", art.Manifest.Warmup)
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
// exits 1 and still stops its CPU profile and writes its heap profile —
// whether the combined -json artifact or, in farm mode, the -csv table
// cannot be written because its path lies under a regular file.
func TestProfilesWrittenOnFailure(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"fig4": {"-run", "fig4", "-json", filepath.Join(file, "out.json")},
		"farm": {"-grid", writeGrid(t), "-csv", filepath.Join(file, "out.csv")},
	} {
		t.Run(name, func(t *testing.T) {
			cpu := filepath.Join(dir, name+"-cpu.pprof")
			heap := filepath.Join(dir, name+"-heap.pprof")
			code, stderr := runMain(t, append([]string{"-n", "2000", "-cpuprofile", cpu, "-memprofile", heap}, args...)...)
			if code != 1 {
				t.Fatalf("exit %d, stderr %q; want exit 1", code, stderr)
			}
			requireGzip(t, cpu)
			requireGzip(t, heap)
		})
	}
}

// requireLiveViews fails the test unless dir holds the live views of a
// finished 2,000-record farm: a metrics.prom that validates and counts the
// records, a progress.json that parses, and no attrib.json, whose source
// the sweeps do not record.
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
	b, err := os.ReadFile(filepath.Join(dir, obs.ProgressFile))
	if err != nil {
		t.Fatal(err)
	}
	var progress telemetry.Progress
	if err := json.Unmarshal(b, &progress); err != nil {
		t.Fatalf("%s: %v", obs.ProgressFile, err)
	}
	if progress.Records != 2000 {
		t.Fatalf("%s: %d records, want 2000", obs.ProgressFile, progress.Records)
	}
	if _, err := os.Stat(filepath.Join(dir, obs.AttribFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("%s written without an event recorder: %v", obs.AttribFile, err)
	}
}

// TestLiveViewsWritten: -live-dir leaves the live views of a finished farm,
// and a farm that exits 1 (its -csv path lies under a regular file) still
// writes them.
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
		"failed": {[]string{"-csv", filepath.Join(file, "out.csv")}, 1},
	} {
		t.Run(name, func(t *testing.T) {
			live := filepath.Join(dir, name)
			args := append([]string{"-n", "2000", "-grid", writeGrid(t), "-live-dir", live}, c.args...)
			if code, stderr := runMain(t, args...); code != c.code {
				t.Fatalf("exit %d, stderr %q; want exit %d", code, stderr, c.code)
			}
			requireLiveViews(t, live)
		})
	}
}
