package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/metrics"
)

// SchemaVersion identifies the artifact schema; bump it on any breaking
// change to Manifest, Artifact or the embedded metrics types.
//
// History: v1 = manifest + report/summary/cells; v2 adds the optional
// event-level attribution table (Artifact.Attribution) and the per-origin
// late-hit breakdown inside reports; v3 adds repeat/seed/config-hash
// provenance to the manifest (Repeat, ConfigHash — Seed predates v3) for
// the sweep farm's repeated, resumable grids (internal/sweepfarm); v4 adds
// the optional telemetry summary inside reports (Report.Telemetry —
// counter totals plus p50/p90/p99 histogram summaries from
// internal/telemetry, present when the run enabled live metrics). Readers
// accept any version in [1, SchemaVersion] — the additions are strictly
// optional fields.
const SchemaVersion = 4

// Manifest records the provenance of one run: everything needed to
// reproduce the numbers in the artifact it accompanies.
type Manifest struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"` // producing command, e.g. "planaria-sim"

	Workload   string `json:"workload,omitempty"`
	Prefetcher string `json:"prefetcher,omitempty"`

	TraceLen    int     `json:"trace_len,omitempty"` // records simulated
	Requests    int     `json:"requests,omitempty"`  // configured trace length
	Warmup      float64 `json:"warmup,omitempty"`    // warmup fraction
	SampleEvery uint64  `json:"sample_every,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	// Repeat and ConfigHash are the sweep farm's provenance (schema v3):
	// Repeat is the 0-based repeat index of this run within its grid
	// cell, and ConfigHash fingerprints the full simulation configuration
	// that produced it. A resume scan accepts a cell artifact only when
	// both (plus Seed and the run shape) match the planned job — anything
	// else is stale and re-executed (internal/sweepfarm).
	Repeat     int    `json:"repeat,omitempty"`
	ConfigHash string `json:"config_hash,omitempty"`

	// GitDescribe names the code that produced the run (see GitDescribe):
	// the binary's VCS stamp, else `git describe` of the working
	// directory; omitted when neither is available.
	GitDescribe string    `json:"git_describe,omitempty"`
	GoVersion   string    `json:"go_version"`
	OS          string    `json:"os"`
	Arch        string    `json:"arch"`
	StartTime   time.Time `json:"start_time"`
	WallTimeSec float64   `json:"wall_time_seconds"`

	// Failure fields: set when the run degraded instead of completing —
	// the artifact then carries the partial results that were salvaged
	// (see docs/OBSERVABILITY.md, "Failure model"). Failure is the error
	// text; Truncated mirrors metrics.Report.Truncated; FailedAt is the
	// global trace position the failure was attributed to.
	Failure   string `json:"failure,omitempty"`
	Truncated bool   `json:"truncated,omitempty"`
	FailedAt  int64  `json:"failed_at,omitempty"`
}

// RecordFailure marks the manifest as describing a degraded run: err
// becomes the Failure text, and when the (possibly partial) report was
// truncated mid-run its position metadata is copied over. A nil err is a
// no-op so callers can invoke it unconditionally.
func (m *Manifest) RecordFailure(err error, rep *metrics.Report) {
	if err == nil {
		return
	}
	m.Failure = err.Error()
	if rep != nil && rep.Truncated {
		m.Truncated = true
		m.FailedAt = rep.FailedAt
	}
}

// NewManifest builds a manifest for the named tool with the environment
// fields (provenance from GitDescribe, Go version, platform, start time)
// filled in.
func NewManifest(tool string) Manifest {
	return Manifest{
		SchemaVersion: SchemaVersion,
		Tool:          tool,
		GitDescribe:   GitDescribe(),
		GoVersion:     runtime.Version(),
		OS:            runtime.GOOS,
		Arch:          runtime.GOARCH,
		StartTime:     time.Now().UTC(),
	}
}

// Cell is one (app × prefetcher) result of a sweep.
type Cell struct {
	App        string         `json:"app"`
	Prefetcher string         `json:"prefetcher"`
	Report     metrics.Report `json:"report"`
}

// Artifact is the complete JSON run artifact: a manifest plus whichever
// result shapes the producing tool has — a single report, sweep cells,
// headline scalars, or any combination.
type Artifact struct {
	Manifest Manifest           `json:"manifest"`
	Report   *metrics.Report    `json:"report,omitempty"`
	Summary  map[string]float64 `json:"summary,omitempty"`
	Cells    []Cell             `json:"cells,omitempty"`

	// Attribution is the event-level lifecycle attribution table of the
	// run (per sub-prefetcher × page bucket, plus the arbitration
	// suppression histogram), present when the run traced events
	// (schema v2; see docs/TRACING.md).
	Attribution *events.AttribSnapshot `json:"attribution,omitempty"`
}

// Validate checks the structural invariants every artifact must satisfy.
func (a Artifact) Validate() error {
	if a.Manifest.SchemaVersion < 1 || a.Manifest.SchemaVersion > SchemaVersion {
		return fmt.Errorf("obs: schema version %d, want 1..%d",
			a.Manifest.SchemaVersion, SchemaVersion)
	}
	if a.Manifest.Tool == "" {
		return errors.New("obs: manifest missing tool")
	}
	if a.Manifest.GoVersion == "" {
		return errors.New("obs: manifest missing go_version")
	}
	for _, c := range a.Cells {
		if c.App == "" || c.Prefetcher == "" {
			return fmt.Errorf("obs: cell missing app/prefetcher: %+v", c)
		}
	}
	return nil
}

// Encode writes the artifact as indented JSON.
func Encode(w io.Writer, a Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("obs: encode: %w", err)
	}
	return nil
}

// Decode reads one artifact and validates it.
func Decode(r io.Reader) (Artifact, error) {
	var a Artifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return Artifact{}, fmt.Errorf("obs: decode: %w", err)
	}
	if err := a.Validate(); err != nil {
		return Artifact{}, err
	}
	return a, nil
}

// WriteFile writes the artifact to path through WriteAtomic, so an encode
// error or a kill mid-write never leaves a torn artifact behind.
func WriteFile(path string, a Artifact) error {
	return WriteAtomic(path, func(w io.Writer) error { return Encode(w, a) })
}

// WriteAtomic writes a file at path (mode 0644) through write, creating
// parent directories as needed. The bytes go to a temporary ".<base>.tmp*"
// file in the same directory — a name no "*.json" or "*.bin" scan matches —
// that is renamed over path only once write returned nil and the file closed
// cleanly, so a failed write or a kill mid-write never leaves a torn file
// behind, and a reader that already has path open keeps the file it
// opened. There is no fsync: the rename guards against torn writes, not
// against power loss, and sweeps write dozens of artifacts per run.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer os.Remove(f.Name()) // fails harmlessly once the rename succeeded
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		return fmt.Errorf("obs: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// ReadFile reads and validates the artifact at path.
func ReadFile(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	return Decode(f)
}

// GitDescribe returns the provenance of the running binary, resolved once
// per process. A binary built by `go build` in a checkout carries its VCS
// stamp: the first 12 hex digits of the commit, plus "-dirty" when the
// tree had uncommitted changes. An unstamped binary (`go run`, `go test`)
// falls back to `git describe --always --dirty` for the working directory,
// which is "" when git or the repository is unavailable. Best-effort
// provenance only — artifacts stay valid without it.
func GitDescribe() string { return provenanceOnce() }

var provenanceOnce = sync.OnceValue(func() string {
	var settings []debug.BuildSetting
	if bi, ok := debug.ReadBuildInfo(); ok {
		settings = bi.Settings
	}
	return provenance(settings, gitDescribe)
})

// provenance formats the VCS stamp in a binary's build settings: the first
// 12 digits of vcs.revision, with "-dirty" appended when vcs.modified is
// "true". Settings without a revision yield fallback().
func provenance(settings []debug.BuildSetting, fallback func() string) string {
	var rev string
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return fallback()
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// gitDescribe returns `git describe --always --dirty` for the working
// directory, or "" when git or the repository is unavailable. Git finds
// its repository through GIT_DIR or a .git entry in the working directory
// or above it; with neither, the subprocess could only fail, so it is not
// started.
func gitDescribe() string {
	if wd, err := os.Getwd(); err == nil && os.Getenv("GIT_DIR") == "" && !underGit(wd) {
		return ""
	}
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// underGit reports whether dir or one of its parents holds a .git entry:
// a repository's directory, or the file a linked worktree or submodule
// keeps in its place.
func underGit(dir string) bool {
	for {
		if _, err := os.Stat(filepath.Join(dir, ".git")); err == nil {
			return true
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return false
		}
		dir = parent
	}
}
