package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/trace"
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

// TestReadTrace loads a whole binary trace, and refuses one cut mid-record.
func TestReadTrace(t *testing.T) {
	p, _ := workloads.ByAbbr("CFM")
	want := p.Generate(5000)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfm.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d records, not the %d written", len(got), len(want))
	}

	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readTrace(path); err == nil {
		t.Fatalf("a trace cut mid-record loaded %d records", len(got))
	}
}
