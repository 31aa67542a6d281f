package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/metrics"
)

var errTest = errors.New("sim: injected stream failure at record 4242")

func sampleArtifact() Artifact {
	man := NewManifest("planaria-sim")
	man.Workload, man.Prefetcher = "CFM", "planaria"
	man.TraceLen, man.Requests = 800_000, 800_000
	man.SampleEvery = 50_000
	man.Seed = 101
	man.Repeat = 2
	man.ConfigHash = "a1b2c3d4e5f60718"
	man.WallTimeSec = 1.25
	rep := metrics.Report{
		Workload:    "CFM",
		Prefetcher:  "planaria",
		DemandReads: 640_000,
		AMAT:        150.25,
		Series: &metrics.TimeSeries{
			EveryRequests: 50_000,
			Samples:       []metrics.Sample{{EndCycle: 100, Requests: 50_000}},
		},
	}
	return Artifact{
		Manifest: man,
		Report:   &rep,
		Summary:  map[string]float64{"hit_rate": 0.82},
	}
}

func TestManifestEnvironmentFields(t *testing.T) {
	man := NewManifest("experiments")
	if man.SchemaVersion != SchemaVersion {
		t.Fatalf("schema version %d", man.SchemaVersion)
	}
	if man.GoVersion == "" || man.OS == "" || man.Arch == "" {
		t.Fatalf("environment fields missing: %+v", man)
	}
	if man.StartTime.IsZero() {
		t.Fatal("start time not set")
	}
}

// TestProvenance pins how a binary's VCS stamp becomes the manifest's
// git_describe, and that only a stamp without a revision falls back to
// `git describe`.
func TestProvenance(t *testing.T) {
	const rev = "0123456789abcdef0123456789abcdef01234567"
	stamp := func(kv ...string) []debug.BuildSetting {
		s := []debug.BuildSetting{{Key: "-compiler", Value: "gc"}, {Key: "GOOS", Value: "linux"}}
		for i := 0; i < len(kv); i += 2 {
			s = append(s, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
		}
		return s
	}
	for _, tc := range []struct {
		name     string
		settings []debug.BuildSetting
		want     string
	}{
		{"modified", stamp("vcs", "git", "vcs.revision", rev, "vcs.modified", "true"), "0123456789ab-dirty"},
		{"clean", stamp("vcs", "git", "vcs.revision", rev, "vcs.modified", "false"), "0123456789ab"},
		{"short revision", stamp("vcs.revision", "abc1234", "vcs.modified", "false"), "abc1234"},
		{"no vcs.modified", stamp("vcs.revision", rev), "0123456789ab"},
		{"no vcs.revision", stamp(), "described"},
		{"no build info", nil, "described"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := provenance(tc.settings, func() string { return "described" }); got != tc.want {
				t.Fatalf("provenance = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestUnderGit: a .git directory, or the .git file of a linked worktree,
// in a directory or any parent marks a repository that git describe may
// find; a tree without one answers as its parents do.
func TestUnderGit(t *testing.T) {
	root := t.TempDir()
	outside := underGit(root)
	for _, dir := range []string{"repo/a/b", "worktree/a"} {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if got := underGit(filepath.Join(root, "repo/a/b")); got != outside {
		t.Fatalf("underGit without .git = %v, want %v as for %s", got, outside, root)
	}
	if err := os.Mkdir(filepath.Join(root, "repo/.git"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "worktree/.git"), []byte("gitdir: ../repo/.git\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"repo", "repo/a/b", "worktree/a"} {
		if !underGit(filepath.Join(root, dir)) {
			t.Errorf("underGit(%s) = false, want true", dir)
		}
	}
}

// TestRecordFailure: a degraded run's manifest carries the error text and
// the truncation metadata of the partial report; a nil error leaves the
// manifest untouched, and the failure fields survive a JSON round trip.
func TestRecordFailure(t *testing.T) {
	man := NewManifest("planaria-sim")
	man.RecordFailure(nil, nil)
	if man.Failure != "" || man.Truncated || man.FailedAt != 0 {
		t.Fatalf("nil error mutated the manifest: %+v", man)
	}

	rep := metrics.Report{Truncated: true, FailedAt: 4242}
	man.RecordFailure(errTest, &rep)
	if man.Failure != errTest.Error() {
		t.Fatalf("Failure = %q", man.Failure)
	}
	if !man.Truncated || man.FailedAt != 4242 {
		t.Fatalf("truncation metadata not copied: %+v", man)
	}

	art := Artifact{Manifest: man, Report: &rep}
	var buf bytes.Buffer
	if err := Encode(&buf, art); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); !strings.Contains(s, `"failure"`) || !strings.Contains(s, `"failed_at": 4242`) {
		t.Fatalf("failure fields missing from JSON:\n%s", s)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Fatal("failure round trip changed the artifact")
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	art := sampleArtifact()
	var buf bytes.Buffer
	if err := Encode(&buf, art); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Fatalf("round trip changed the artifact:\n before %+v\n after  %+v", art, back)
	}
}

func TestWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	// Nested path exercises directory creation.
	path := filepath.Join(dir, "artifacts", "CFM_planaria.json")
	art := sampleArtifact()
	if err := WriteFile(path, art); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(art, back) {
		t.Fatal("file round trip changed the artifact")
	}
	// The on-disk form must use the documented snake_case schema.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"schema_version"`, `"manifest"`, `"amat_cycles"`, `"every_requests"`, `"repeat"`, `"config_hash"`} {
		if !strings.Contains(string(raw), key) {
			t.Fatalf("artifact JSON missing key %s", key)
		}
	}
}

// TestWriteFileKeepsPreviousOnError: a write that fails — an artifact that
// cannot encode (JSON has no NaN), or a WriteAtomic write func that errors
// after it has written bytes — must leave the previous file byte-identical
// and no temporary file behind.
func TestWriteFileKeepsPreviousOnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.json")
	if err := WriteFile(path, sampleArtifact()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := sampleArtifact()
	bad.Report.AMAT = math.NaN()
	if err := WriteFile(path, bad); err == nil {
		t.Fatal("NaN report encoded without error")
	}
	errMidWrite := errors.New("write failed mid-file")
	partial := func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return errMidWrite
	}
	if err := WriteAtomic(path, partial); !errors.Is(err, errMidWrite) {
		t.Fatalf("WriteAtomic = %v, want the write func's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write changed the previous artifact")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after a failed write, want only %s", len(entries), path)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("artifact mode %v (%v), want 0644", fi.Mode().Perm(), err)
	}
}

// FuzzDecode: Decode must never panic, and any artifact it accepts must
// re-encode and re-decode to an equal value.
func FuzzDecode(f *testing.F) {
	var good bytes.Buffer
	if err := Encode(&good, sampleArtifact()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{"manifest":{"schema_version":1,"tool":"t","go_version":"go"}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := Decode(bytes.NewReader(in))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := Encode(&enc, a); err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		b, err := Decode(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v\n%s", err, enc.Bytes())
		}
		var again bytes.Buffer
		if err := Encode(&again, b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatalf("round trip changed the artifact:\n%s\n---\n%s", enc.Bytes(), again.Bytes())
		}
	})
}

// TestSchemaV3Provenance: the v3 repeat/seed/config-hash provenance fields
// survive a round trip, and repeat 0 with no hash (a pre-v3 producer shape)
// stays omitted from the JSON — older artifacts remain byte-stable.
func TestSchemaV3Provenance(t *testing.T) {
	art := sampleArtifact()
	art.Manifest.Repeat = 4
	art.Manifest.Seed = -7
	art.Manifest.ConfigHash = "deadbeef00112233"
	var buf bytes.Buffer
	if err := Encode(&buf, art); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Manifest.Repeat != 4 || back.Manifest.Seed != -7 || back.Manifest.ConfigHash != "deadbeef00112233" {
		t.Fatalf("v3 provenance lost in round trip: %+v", back.Manifest)
	}

	plain := sampleArtifact()
	plain.Manifest.Repeat = 0
	plain.Manifest.ConfigHash = ""
	buf.Reset()
	if err := Encode(&buf, plain); err != nil {
		t.Fatal(err)
	}
	if s := buf.String(); strings.Contains(s, `"repeat"`) || strings.Contains(s, `"config_hash"`) {
		t.Fatalf("zero-valued v3 fields not omitted:\n%s", s)
	}
}

func TestValidateRejectsBadArtifacts(t *testing.T) {
	good := sampleArtifact()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}

	bad := good
	bad.Manifest.SchemaVersion = 99
	if err := bad.Validate(); err == nil {
		t.Fatal("wrong schema version accepted")
	}

	bad = good
	bad.Manifest.Tool = ""
	if err := bad.Validate(); err == nil {
		t.Fatal("missing tool accepted")
	}

	bad = good
	bad.Cells = []Cell{{App: "CFM"}} // no prefetcher
	if err := bad.Validate(); err == nil {
		t.Fatal("incomplete cell accepted")
	}

	// Decode must also reject garbage.
	if _, err := Decode(strings.NewReader("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	art := sampleArtifact()
	var a, b bytes.Buffer
	if err := Encode(&a, art); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, art); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same artifact encoded differently twice")
	}
}

func TestProfileHooks(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	stop, err := StartCPUProfile(cpu)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to record.
	x := 0
	for i := 0; i < 1_000_000; i++ {
		x += i * i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(cpu); err != nil || fi.Size() == 0 {
		t.Fatalf("cpu profile not written: %v", err)
	}

	mem := filepath.Join(dir, "mem.out")
	if err := WriteHeapProfile(mem); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(mem); err != nil || fi.Size() == 0 {
		t.Fatalf("heap profile not written: %v", err)
	}
}
