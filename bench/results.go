package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// results is a full run's record: provenance, and per workload the
// end-to-end samples and the per-layer values.
type results struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

type provenance struct {
	GitSHA          string  `json:"git_sha"`
	GitDirty        bool    `json:"git_dirty"`
	HostCPU         string  `json:"host_cpu"`
	NProc           int     `json:"nproc"`
	ChildGOMAXPROCS int     `json:"child_gomaxprocs"`
	GOGC            string  `json:"gogc"`
	GoVersion       string  `json:"go_version"`
	OS              string  `json:"os"`
	Arch            string  `json:"arch"`
	Seed            int64   `json:"seed"`
	Repeats         int     `json:"repeats"`
	SetupRuns       int     `json:"setup_runs"`
	TracedReps      int     `json:"traced_reps"`
	TracedPrefix    int     `json:"traced_prefix"`
	StartTime       string  `json:"start_time"`
	ElapsedSec      float64 `json:"elapsed_seconds"`
}

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Digest    string             `json:"digest"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer"`
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricValues pairs each metric of list with its value in vals, failing on
// a missing or non-finite one.
func metricValues(list []metric, vals map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s has no finite value (%v)", m.Name, v)
		}
		out[m.Name] = value{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// printValues prints one line per metric of list, in list order.
func printValues(w io.Writer, prefix string, list []metric, vals map[string]value) {
	for _, m := range list {
		fmt.Fprintf(w, "%s%-48s %14.6g %s\n", prefix, m.Name, vals[m.Name].Value, m.Unit)
	}
}

// newProvenance records what produced a results file.
func (s *session) newProvenance(seed int64, start time.Time) provenance {
	p := provenance{
		GitSHA: "unknown", HostCPU: hostCPU(), NProc: s.nproc, ChildGOMAXPROCS: s.nproc,
		GOGC: os.Getenv("GOGC"), GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
		Seed: seed, Repeats: fullRepeats, SetupRuns: setupRuns, TracedReps: tracedReps,
		TracedPrefix: tracedPrefix, StartTime: start.UTC().Format(time.RFC3339),
	}
	if p.GOGC == "" {
		p.GOGC = "100 (default)"
	}
	if out, err := exec.Command("git", "-C", s.root, "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", s.root, "status", "--porcelain").Output(); err == nil {
			p.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return p
}

// hostCPU returns the CPU model name from /proc/cpuinfo, or the
// architecture when it is unavailable.
func hostCPU() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// writeResults writes res as indented JSON to path.
func writeResults(path string, res *results) error {
	if dir := filepath.Dir(path); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// readResults reads a results file.
func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var res results
	if err := json.Unmarshal(b, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &res, nil
}
