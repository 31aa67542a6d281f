package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/sim"
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
