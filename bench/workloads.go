package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sweepfarm"
	"repro/internal/workloads"
)

// workload is one command the benchmark times. The three trace workloads
// replay a tracegen file through planaria-sim; the sweep runs an
// experiments grid, whose per-cell seeds the farm derives itself.
type workload struct {
	name, why string
	records   int    // records simulated by one full-size invocation
	app       string // catalog app the inputs come from
	profile   string // profile file under bench/ overriding app ("" = catalog)
	pf        string // sim.NamedPrefetcher name the command runs
	args      []string
	mmap      bool // planaria-sim reads the trace through the mapping
	sweep     bool
}

// The sweep grid: every catalog app × the paper's comparison set, two
// seeded repeats of sweepRequests records each.
var (
	sweepPFs      = []string{"none", "bop", "spp", "planaria"}
	sweepRepeats  = 2
	sweepRequests = 200_000
	sweepWarmup   = 0.2 // the experiments CLI default
)

var workloadList = []workload{
	{
		name: "cfm-planaria-10m", records: 10_000_000, app: "CFM", pf: "planaria",
		args: []string{"-pf", "planaria"}, mmap: true,
		why: "Planaria on 10M CFM records through the mmap reader and the parallel driver: SLP/TLP, SC, DRAM and batch decode all carry real work",
	},
	{
		name: "fort-tournament-8m", records: 8_000_000, app: "Fort", pf: "planaria-tournament",
		args: []string{"-tournament"}, mmap: true,
		why: "Fort's cold, clustered footprint makes TLP and the four tournament components plus Meta the dominant cost; tournament changes show only here",
	},
	{
		name: "nba2w-none-20m", records: 20_000_000, app: "NBA2", profile: "profiles/nba2w.json", pf: "none",
		args: []string{"-pf", "none", "-mmap=false"},
		why:  "40% writes with the prefetcher idle: dirty writebacks and DRAM turnarounds load SC and DRAM, prefetcher changes must show zero; buffered reads",
	},
	{
		name: "sweep-grid-80", records: len(workloads.Abbrs()) * len(sweepPFs) * sweepRepeats * sweepRequests,
		app: "CFM", sweep: true,
		why: "experiments grid of 10 apps x {none,bop,spp,planaria} x 2 repeats: generator input, BOP/SPP, 80 engine builds and artifact writes on the farm pool",
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputSeed derives a workload's tracegen seed from the benchmark seed: the
// same benchmark seed always gives the same inputs, and workloads never
// share a seed. Zero is avoided because tracegen reads it as "keep the
// profile's own seed".
func inputSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\x00%d", name, seed)
	if s := int64(h.Sum64() >> 1); s != 0 {
		return s
	}
	return 1
}

// input is one workload's generated inputs.
type input struct {
	dir     string
	trace   string // full-size trace file (trace workloads)
	small   string // 1-record trace file (trace workloads)
	grid    string // grid spec (sweep)
	profile workloads.Profile
}

// sweepGrid is the grid the sweep workload runs.
func sweepGrid() sweepfarm.Grid {
	return sweepfarm.Grid{Apps: workloads.Abbrs(), Prefetchers: sweepPFs, Repeats: sweepRepeats}
}

// loadProfile returns the workload's generator profile, reseeded for the
// benchmark seed (trace workloads) or at its catalog seed (the sweep, whose
// first cell keeps the catalog seed).
func (w workload) loadProfile(benchDir string, seed int64) (workloads.Profile, error) {
	var p workloads.Profile
	if w.profile != "" {
		f, err := os.Open(filepath.Join(benchDir, w.profile))
		if err != nil {
			return p, err
		}
		defer f.Close()
		if p, err = workloads.ReadProfile(f); err != nil {
			return p, err
		}
	} else {
		var ok bool
		if p, ok = workloads.ByAbbr(w.app); !ok {
			return p, fmt.Errorf("unknown app %q", w.app)
		}
	}
	if !w.sweep {
		p.Seed = inputSeed(seed, w.name)
	}
	return p, nil
}

// prepare generates the workload's inputs into dir.
func (s *session) prepare(w workload, seed int64, dir string) (*input, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p, err := w.loadProfile(s.benchDir(), seed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	in := &input{dir: dir, profile: p}
	if w.sweep {
		in.grid = filepath.Join(dir, "grid.json")
		b, err := json.Marshal(sweepGrid())
		if err != nil {
			return nil, err
		}
		return in, os.WriteFile(in.grid, b, 0o644)
	}
	src := []string{"-app", w.app}
	if w.profile != "" {
		src = []string{"-profile", filepath.Join(s.benchDir(), w.profile)}
	}
	in.trace = filepath.Join(dir, w.name+".bin")
	in.small = filepath.Join(dir, w.name+"-1.bin")
	for _, f := range []struct {
		path string
		n    int
	}{{in.trace, w.records}, {in.small, 1}} {
		args := append(append([]string{}, src...),
			"-seed", strconv.FormatInt(p.Seed, 10), "-n", strconv.Itoa(f.n), "-o", f.path)
		if _, err := s.run(s.tools.gen, args...); err != nil {
			return nil, fmt.Errorf("%s: tracegen: %w", w.name, err)
		}
	}
	return in, nil
}

// requested returns the records one invocation simulates.
func (w workload) requested(small bool) int {
	switch {
	case !small:
		return w.records
	case w.sweep:
		return len(workloads.Abbrs()) * len(sweepPFs) * sweepRepeats
	}
	return 1
}

// command returns the CLI invocation writing its outputs into out.
func (s *session) command(w workload, in *input, small bool, out string) (string, []string) {
	if w.sweep {
		n := sweepRequests
		if small {
			n = 1
		}
		return s.tools.exp, []string{"-n", strconv.Itoa(n), "-subshards", "1", "-grid", in.grid,
			"-artifact-dir", filepath.Join(out, "cells"), "-csv", filepath.Join(out, "grid.csv")}
	}
	file := in.trace
	if small {
		file = in.small
	}
	args := append([]string{"-trace", file}, w.args...)
	return s.tools.sim, append(args, "-subshards", "1", "-json", filepath.Join(out, "report.json"))
}

// outcome is what one invocation produced, once checked.
type outcome struct {
	digest string         // fingerprint that must repeat across invocations
	amat   float64        // simulated AMAT (the sweep: mean over cells)
	report metrics.Report // the run's report (the sweep: cell reports summed)
}

// check validates an invocation's outputs: a complete report (no failure,
// not truncated) covering exactly the requested records.
func (w workload) check(small bool, out string) (outcome, error) {
	want := w.requested(small)
	if w.sweep {
		return checkSweep(want, out)
	}
	art, err := obs.ReadFile(filepath.Join(out, "report.json"))
	if err != nil {
		return outcome{}, err
	}
	rep := art.Report
	switch {
	case rep == nil:
		return outcome{}, fmt.Errorf("artifact has no report")
	case art.Manifest.Failure != "" || rep.Truncated:
		return outcome{}, fmt.Errorf("truncated report: %s", art.Manifest.Failure)
	case int(rep.DemandReads+rep.DemandWrites) != want:
		return outcome{}, fmt.Errorf("report covers %d records, want %d", rep.DemandReads+rep.DemandWrites, want)
	case !(rep.AMAT >= 0) || math.IsInf(rep.AMAT, 0) || (!small && rep.AMAT == 0):
		// A 1-record input may hold a single write, which leaves AMAT 0.
		return outcome{}, fmt.Errorf("implausible AMAT %v", rep.AMAT)
	}
	d, err := reportDigest(*rep)
	if err != nil {
		return outcome{}, err
	}
	return outcome{digest: d, amat: rep.AMAT, report: *rep}, nil
}

// checkSweep validates the sweep's CSV (one complete row per cell) and
// every job artifact, and sums the job reports.
func checkSweep(want int, out string) (outcome, error) {
	data, err := os.ReadFile(filepath.Join(out, "grid.csv"))
	if err != nil {
		return outcome{}, err
	}
	rows, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return outcome{}, fmt.Errorf("grid.csv: %w", err)
	}
	cells := len(workloads.Abbrs()) * len(sweepPFs)
	if len(rows) != cells+1 {
		return outcome{}, fmt.Errorf("grid.csv has %d rows, want %d cells", len(rows)-1, cells)
	}
	ri, ai := -1, -1
	for i, h := range rows[0] {
		switch h {
		case "repeats":
			ri = i
		case "amat_cycles_mean":
			ai = i
		}
	}
	if ri < 0 || ai < 0 {
		return outcome{}, fmt.Errorf("grid.csv lacks repeats/amat_cycles_mean columns")
	}
	var amat float64
	for _, r := range rows[1:] {
		if r[ri] != strconv.Itoa(sweepRepeats) {
			return outcome{}, fmt.Errorf("cell %s/%s has %s repeats", r[0], r[1], r[ri])
		}
		v, err := strconv.ParseFloat(r[ai], 64)
		if err != nil {
			return outcome{}, fmt.Errorf("cell %s/%s: %w", r[0], r[1], err)
		}
		amat += v
	}
	amat /= float64(cells)

	files, err := filepath.Glob(filepath.Join(out, "cells", "*.json"))
	if err != nil {
		return outcome{}, err
	}
	jobs := cells * sweepRepeats
	if len(files) != jobs {
		return outcome{}, fmt.Errorf("%d job artifacts, want %d", len(files), jobs)
	}
	perJob := want / jobs
	measured := perJob - int(float64(perJob)*sweepWarmup)
	var sum metrics.Report
	for _, f := range files {
		art, err := obs.ReadFile(f)
		if err != nil {
			return outcome{}, err
		}
		rep := art.Report
		if rep == nil || rep.Truncated || art.Manifest.Failure != "" {
			return outcome{}, fmt.Errorf("%s: missing or truncated report", filepath.Base(f))
		}
		if int(rep.DemandReads+rep.DemandWrites) != measured {
			return outcome{}, fmt.Errorf("%s: report covers %d records, want %d",
				filepath.Base(f), rep.DemandReads+rep.DemandWrites, measured)
		}
		addReport(&sum, *rep)
	}
	h := sha256.Sum256(data)
	return outcome{digest: hex.EncodeToString(h[:]), amat: amat, report: sum}, nil
}

// reportDigest fingerprints a report's canonical JSON form, the same digest
// the engine's golden tests pin.
func reportDigest(rep metrics.Report) (string, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// addReport adds the counters the per-layer metrics read from src to dst.
func addReport(dst *metrics.Report, src metrics.Report) {
	dst.DemandReads += src.DemandReads
	dst.DemandWrites += src.DemandWrites
	dst.LatePrefetchHits += src.LatePrefetchHits
	c, s := &dst.Cache, src.Cache
	c.DemandAccesses += s.DemandAccesses
	c.DemandHits += s.DemandHits
	c.DemandMisses += s.DemandMisses
	c.PrefetchFills += s.PrefetchFills
	c.UsefulPrefetches += s.UsefulPrefetches
	c.Writebacks += s.Writebacks
	c.PollutionEvicts += s.PollutionEvicts
	d, t := &dst.DRAM, src.DRAM
	d.Reads += t.Reads
	d.Writes += t.Writes
	d.RowHits += t.RowHits
	d.RowMisses += t.RowMisses
	d.RowEmpty += t.RowEmpty
	d.DemandReads += t.DemandReads
	d.TotalDemandReadLat += t.TotalDemandReadLat
	q, r := &dst.Prefetch, src.Prefetch
	q.Candidates += r.Candidates
	q.Filtered += r.Filtered
	q.Issued += r.Issued
	q.Dropped += r.Dropped
}

// reportMetrics derives the per-layer values the CLI artifacts carry.
func reportMetrics(rep metrics.Report) map[string]float64 {
	records := float64(rep.DemandReads + rep.DemandWrites)
	d := rep.DRAM
	return map[string]float64{
		"prefetch.queue.candidates":           float64(rep.Prefetch.Candidates),
		"prefetch.queue.filtered_frac":        ratio(float64(rep.Prefetch.Filtered), float64(rep.Prefetch.Candidates)),
		"prefetch.queue.issued":               float64(rep.Prefetch.Issued),
		"prefetch.queue.dropped":              float64(rep.Prefetch.Dropped),
		"prefetch.accuracy":                   rep.Accuracy(),
		"prefetch.coverage":                   rep.Coverage(),
		"cache.hit_rate":                      rep.HitRate(),
		"cache.writebacks":                    float64(rep.Cache.Writebacks),
		"cache.useful_prefetches":             float64(rep.Cache.UsefulPrefetches),
		"cache.pollution_evicts":              float64(rep.Cache.PollutionEvicts),
		"dram.requests_per_record":            ratio(float64(d.Reads+d.Writes), records),
		"dram.row_hit_rate":                   ratio(float64(d.RowHits), float64(d.RowHits+d.RowMisses+d.RowEmpty)),
		"dram.avg_demand_read_latency_cycles": d.AvgDemandReadLatency(),
		"dram.write_frac":                     ratio(float64(d.Writes), float64(d.Reads+d.Writes)),
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
