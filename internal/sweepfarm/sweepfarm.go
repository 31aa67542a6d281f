package sweepfarm

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// Config is the full simulation configuration of one grid cell — every
// knob that changes the numbers a run produces. Its Hash fingerprints the
// cell for resume validation: a cached artifact is only reused when the
// planned job hashes to the same value.
type Config struct {
	Requests    int     // trace length per run
	Warmup      float64 // warmup fraction, clamped to [0, 0.9] as sim.ClampWarmup clamps it
	SampleEvery uint64  // windowed time-series sampling period

	// Engine overrides; the zero value keeps sim.DefaultConfig's or the
	// named prefetcher's own setting.
	SliceBytes    int    // per-channel SC slice capacity in bytes
	Policy        string // SC replacement policy, as cache.ParsePolicy reads it
	DistThreshold uint64 // Planaria TLP neighbour distance threshold
	PTEntries     int    // Planaria SLP pattern-table entries

	// Deprecated: the engine runs one execution unit per channel.
	// SubShards must be 0 or 1, Runner.Run refuses more, and Hash ignores it.
	SubShards int
}

// normalize clamps the warmup fraction the same way the engine does, so
// equal effective configurations hash equally.
func (c Config) normalize() Config {
	c.Warmup = sim.ClampWarmup(c.Warmup)
	return c
}

// Hash returns the configuration fingerprint recorded in artifact
// manifests (obs.Manifest.ConfigHash, schema v3): a 64-bit FNV-1a over the
// canonical field encoding, rendered as 16 hex digits. The engine
// overrides enter it only when one is set, so a configuration without
// overrides keeps the hash its existing checkpoints carry.
func (c Config) Hash() string {
	c = c.normalize()
	h := fnv.New64a()
	fmt.Fprintf(h, "requests=%d|warmup=%g|sample=%d",
		c.Requests, c.Warmup, c.SampleEvery)
	if c.SliceBytes != 0 || c.Policy != "" || c.DistThreshold != 0 || c.PTEntries != 0 {
		fmt.Fprintf(h, "|slice=%d|policy=%s|dist=%d|pt=%d",
			c.SliceBytes, c.Policy, c.DistThreshold, c.PTEntries)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxSliceBytes and maxPTEntries cap a grid's slice and pattern-table
// overrides at 64 times the defaults: a grid file is outside input, and a
// larger value would have the engine allocate more than a host holds.
const maxSliceBytes, maxPTEntries = 64 << 20, 1 << 20

// engine resolves the engine configuration of one cell: sim.DefaultConfig
// running the named prefetcher, with c's engine overrides applied. The
// Planaria overrides reach only the registry's Planaria composites whose
// sub-prefetcher they set (sim.PlanariaConfig).
func (c Config) engine(prefetcher string) (sim.Config, error) {
	cfg := sim.DefaultConfig()
	factory, err := sim.NamedPrefetcher(prefetcher)
	if err != nil {
		return cfg, err
	}
	pc, planaria := sim.PlanariaConfig(prefetcher)
	switch {
	case c.SliceBytes > maxSliceBytes:
		return cfg, fmt.Errorf("sc_slice_bytes %d exceeds %d", c.SliceBytes, maxSliceBytes)
	case c.PTEntries < 0 || c.PTEntries > maxPTEntries:
		return cfg, fmt.Errorf("slp_pt_entries %d outside [1, %d]", c.PTEntries, maxPTEntries)
	case c.DistThreshold != 0 && (!planaria || pc.DisableTLP):
		return cfg, fmt.Errorf("prefetcher %q runs no Planaria TLP for tlp_dist_threshold", prefetcher)
	case c.PTEntries != 0 && (!planaria || pc.DisableSLP):
		return cfg, fmt.Errorf("prefetcher %q runs no Planaria SLP for slp_pt_entries", prefetcher)
	}
	cfg.NewPrefetcher = factory
	cfg.Cache.SizeBytes = cmp.Or(c.SliceBytes, cfg.Cache.SizeBytes)
	if c.Policy != "" {
		if cfg.Cache.Policy, err = cache.ParsePolicy(c.Policy); err != nil {
			return cfg, err
		}
	}
	if c.DistThreshold != 0 || c.PTEntries != 0 {
		pc.TLP.DistThreshold = cmp.Or(c.DistThreshold, pc.TLP.DistThreshold)
		pc.SLP.PTEntries = cmp.Or(c.PTEntries, pc.SLP.PTEntries)
		cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return core.New(pc) }
	}
	return cfg, cfg.Cache.Validate()
}

// Variant is one named configuration override inside a grid. Zero/nil
// fields inherit the runner's base configuration; pointers distinguish "not
// set" from an explicit zero (e.g. warmup 0 = disabled).
type Variant struct {
	Name        string   `json:"name"`
	Requests    int      `json:"requests,omitempty"`
	Warmup      *float64 `json:"warmup,omitempty"`
	SampleEvery *uint64  `json:"sample_every,omitempty"`

	// The engine overrides (Config's fields of the same names).
	SliceBytes    int    `json:"sc_slice_bytes,omitempty"`
	Policy        string `json:"sc_policy,omitempty"`
	DistThreshold uint64 `json:"tlp_dist_threshold,omitempty"`
	PTEntries     int    `json:"slp_pt_entries,omitempty"`

	// Prefetchers, when set, restricts the variant to these of the grid's
	// prefetchers; empty runs it under all of them.
	Prefetchers []string `json:"prefetchers,omitempty"`
}

// apply overlays the variant on a base configuration.
func (v Variant) apply(base Config) Config {
	if v.Requests > 0 {
		base.Requests = v.Requests
	}
	if v.Warmup != nil {
		base.Warmup = *v.Warmup
	}
	if v.SampleEvery != nil {
		base.SampleEvery = *v.SampleEvery
	}
	base.SliceBytes = cmp.Or(v.SliceBytes, base.SliceBytes)
	base.Policy = cmp.Or(v.Policy, base.Policy)
	base.DistThreshold = cmp.Or(v.DistThreshold, base.DistThreshold)
	base.PTEntries = cmp.Or(v.PTEntries, base.PTEntries)
	return base.normalize()
}

// runs reports whether the variant runs under the named prefetcher.
func (v Variant) runs(prefetcher string) bool {
	return len(v.Prefetchers) == 0 || slices.Contains(v.Prefetchers, prefetcher)
}

// Grid is the experiment cross product: apps × prefetchers × variants,
// each cell repeated Repeats times with deterministic seeds.
type Grid struct {
	// Apps lists catalog abbreviations (workloads.Abbrs); empty selects
	// the full Table 2 catalog.
	Apps []string `json:"apps,omitempty"`
	// Prefetchers lists named prefetchers (sim.PrefetcherNames); required.
	Prefetchers []string `json:"prefetchers"`
	// Variants lists configuration overrides; empty means one unnamed
	// base variant.
	Variants []Variant `json:"variants,omitempty"`
	// Repeats is R, the seeded repeats per cell; values below 1 mean 1.
	Repeats int `json:"repeats,omitempty"`
}

// normalized fills the grid's defaults: all catalog apps, one base
// variant, at least one repeat.
func (g Grid) normalized() Grid {
	if len(g.Apps) == 0 {
		g.Apps = workloads.Abbrs()
	}
	if len(g.Variants) == 0 {
		g.Variants = []Variant{{}}
	}
	if g.Repeats < 1 {
		g.Repeats = 1
	}
	return g
}

// Validate rejects grids that could not run cleanly: unknown apps,
// prefetchers or policies, an engine override on a prefetcher it cannot
// reach, an invalid cache size, duplicates (which would collide on artifact
// paths), or no prefetchers. LoadGrid and cmd/experiments validate eagerly
// for fast feedback; Runner.Run enforces only the structural part, so a
// single unresolvable cell degrades to a per-job error instead of sinking
// the whole grid.
func (g Grid) Validate() error {
	if err := g.validateStructure(); err != nil {
		return err
	}
	g = g.normalized()
	for _, a := range g.Apps {
		if _, ok := workloads.ByAbbr(a); !ok {
			return fmt.Errorf("sweepfarm: unknown app %q", a)
		}
	}
	for _, pf := range g.Prefetchers {
		for _, v := range g.Variants {
			if !v.runs(pf) {
				continue
			}
			if _, err := v.apply(Config{}).engine(pf); err != nil {
				if v.Name != "" {
					err = fmt.Errorf("variant %q: %w", v.Name, err)
				}
				return fmt.Errorf("sweepfarm: %w", err)
			}
		}
	}
	return nil
}

// validateStructure checks the grid shape alone (no name resolution).
func (g Grid) validateStructure() error {
	g = g.normalized()
	if len(g.Prefetchers) == 0 {
		return errors.New("sweepfarm: grid has no prefetchers")
	}
	seen := map[string]bool{}
	for _, a := range g.Apps {
		if seen["a:"+a] {
			return fmt.Errorf("sweepfarm: duplicate app %q", a)
		}
		seen["a:"+a] = true
	}
	for _, pf := range g.Prefetchers {
		if seen["p:"+pf] {
			return fmt.Errorf("sweepfarm: duplicate prefetcher %q", pf)
		}
		seen["p:"+pf] = true
	}
	for _, v := range g.Variants {
		if seen["v:"+v.Name] {
			return fmt.Errorf("sweepfarm: duplicate variant name %q", v.Name)
		}
		seen["v:"+v.Name] = true
		for _, pf := range v.Prefetchers {
			if !seen["p:"+pf] {
				return fmt.Errorf("sweepfarm: variant %q names prefetcher %q, which the grid does not run", v.Name, pf)
			}
		}
	}
	return nil
}

// LoadGrid reads a JSON grid spec (see EXPERIMENTS.md, "Sweep farm") and
// validates it. Unknown fields are rejected so a typoed knob fails loudly
// instead of silently running the default.
func LoadGrid(path string) (Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return Grid{}, fmt.Errorf("sweepfarm: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return Grid{}, fmt.Errorf("sweepfarm: grid %s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, fmt.Errorf("%w (grid %s)", err, path)
	}
	return g, nil
}

// CellKey identifies one grid cell.
type CellKey struct {
	App        string
	Prefetcher string
	Variant    string // variant name; "" = the base variant
}

// String renders "app/prefetcher" or "app/prefetcher@variant".
func (k CellKey) String() string {
	if k.Variant == "" {
		return k.App + "/" + k.Prefetcher
	}
	return k.App + "/" + k.Prefetcher + "@" + k.Variant
}

// Job is one schedulable unit: a cell repeat with its resolved seed and
// configuration.
type Job struct {
	Cell   CellKey
	Repeat int
	Seed   int64
	Config Config
}

// String renders "app/prefetcher[@variant] r<N>".
func (j Job) String() string { return fmt.Sprintf("%s r%d", j.Cell, j.Repeat) }

// ArtifactName is the job's checkpoint file inside the artifact directory.
func (j Job) ArtifactName() string {
	v := j.Cell.Variant
	if v == "" {
		v = "base"
	}
	return fmt.Sprintf("%s_%s_%s_r%d.json",
		sanitize(j.Cell.App), sanitize(j.Cell.Prefetcher), sanitize(v), j.Repeat)
}

// sanitize maps a key component onto the filename-safe alphabet.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		}
		return '_'
	}, s)
}

// SeedFor derives the workload seed of one cell repeat. Repeat 0 keeps the
// catalog profile's own seed (base), so single-repeat grids reproduce the
// paper's point estimates bit for bit.
// Later repeats hash the cell key and repeat index (FNV-1a), independent of
// everything else, so the same grid always simulates the same trace set.
func SeedFor(key CellKey, repeat int, base int64) int64 {
	if repeat == 0 {
		return base
	}
	h := fnv.New64a()
	io.WriteString(h, key.App)
	h.Write([]byte{0})
	io.WriteString(h, key.Prefetcher)
	h.Write([]byte{0})
	io.WriteString(h, key.Variant)
	fmt.Fprintf(h, "\x00r%d", repeat)
	s := int64(h.Sum64() >> 1) // keep it non-negative for readability
	if s == 0 {
		s = int64(repeat)
	}
	return s
}

// RepeatResult is one completed repeat of a cell.
type RepeatResult struct {
	Seed    int64
	Resumed bool // satisfied from a prior run's artifact, not executed
	Report  metrics.Report
}

// CellResult collects a cell's repeats (indexed by repeat; nil entries
// failed or were cancelled) and, once complete, its per-metric aggregate.
type CellResult struct {
	Key     CellKey
	Config  Config
	Repeats []*RepeatResult
	// Agg holds mean/std/CI95 per metric name (see Metrics), computed for
	// complete cells only.
	Agg Aggregate
}

// Complete reports whether every repeat of the cell produced a report.
func (c *CellResult) Complete() bool {
	for _, r := range c.Repeats {
		if r == nil {
			return false
		}
	}
	return len(c.Repeats) > 0
}

// Result is the outcome of one Runner.Run: every planned cell in
// deterministic plan order plus scheduling counters.
type Result struct {
	Grid     Grid          // normalized grid that was planned
	Cells    []*CellResult // plan order: app-major, then prefetcher, then variant
	Executed int           // jobs simulated in this run
	Resumed  int           // jobs satisfied from the artifact directory
	Failed   int           // jobs that errored or were cancelled
}

// ReportGrid flattens the named variant's complete cells into the
// map[app][prefetcher]Report shape the experiments figures consume, using
// each cell's repeat-0 report (the catalog-seeded run).
func (r *Result) ReportGrid(variant string) map[string]map[string]metrics.Report {
	out := make(map[string]map[string]metrics.Report)
	for _, c := range r.Cells {
		if c.Key.Variant != variant || !c.Complete() {
			continue
		}
		if out[c.Key.App] == nil {
			out[c.Key.App] = make(map[string]metrics.Report)
		}
		out[c.Key.App][c.Key.Prefetcher] = c.Repeats[0].Report
	}
	return out
}

// Runner executes one grid. Zero-value fields select defaults; only Grid
// and Base are required.
type Runner struct {
	Grid Grid
	Base Config // cell configuration before variant overlays

	// ArtifactDir enables checkpointing and resume: every completed job
	// writes one schema-v3 artifact here, and Run starts by scanning the
	// directory, re-executing only jobs without a valid matching
	// artifact. Empty disables both (everything runs in memory).
	ArtifactDir string

	// Workers bounds the pool; 0 means GOMAXPROCS.
	Workers int

	// Progress, when non-nil, receives job-granular run progress
	// (telemetry.RunProgress): Run declares the records of every planned
	// job it did not resume, then adds each job's records as it completes.
	// The registry is never handed to the engines, so reports and
	// checkpoints stay independent of it.
	Progress *telemetry.Registry

	// JobDone, when non-nil, is called after a job's result is
	// checkpointed and recorded — the hook the resume tests use to cancel
	// mid-grid at a deterministic point. Called concurrently from worker
	// goroutines.
	JobDone func(Job, metrics.Report)
}

// Run plans the grid, resumes whatever the artifact directory already
// holds, executes the remaining jobs on the worker pool, and aggregates
// complete cells. On failure it degrades instead of discarding the grid:
// the returned Result still carries every completed cell, and the error
// joins one entry per failed job (cell key and repeat in each message) via
// errors.Join. A job whose checkpoint cannot be written keeps its report
// and counts as failed. Cancelling ctx stops workers at the next chunk
// boundary; in-flight jobs are not checkpointed, so a later Run over the
// same artifact directory re-executes exactly the unfinished jobs.
func (r *Runner) Run(ctx context.Context) (*Result, error) {
	grid := r.Grid.normalized()
	if err := grid.validateStructure(); err != nil {
		return nil, err
	}
	if r.Base.SubShards > 1 {
		return nil, fmt.Errorf("sweepfarm: SubShards %d: sub-sharding was removed; the engine runs one unit per channel", r.Base.SubShards)
	}

	// Plan: deterministic order — app-major, then prefetcher, variant,
	// repeat — so error lists, artifacts and outputs are stable.
	type planned struct {
		job  Job
		cell *CellResult
	}
	var cells []*CellResult
	var plan []planned
	for _, app := range grid.Apps {
		p, _ := workloads.ByAbbr(app)
		for _, pf := range grid.Prefetchers {
			for _, v := range grid.Variants {
				if !v.runs(pf) {
					continue
				}
				key := CellKey{App: app, Prefetcher: pf, Variant: v.Name}
				cfg := v.apply(r.Base.normalize())
				cell := &CellResult{Key: key, Config: cfg, Repeats: make([]*RepeatResult, grid.Repeats)}
				cells = append(cells, cell)
				for rep := 0; rep < grid.Repeats; rep++ {
					plan = append(plan, planned{
						job:  Job{Cell: key, Repeat: rep, Seed: SeedFor(key, rep, p.Seed), Config: cfg},
						cell: cell,
					})
				}
			}
		}
	}

	res := &Result{Grid: grid, Cells: cells}

	// Resume scan: accept only artifacts that provably belong to the
	// planned job (see resume.go).
	resumed := make(map[int]metrics.Report)
	if r.ArtifactDir != "" {
		for i, pl := range plan {
			rep, ok := r.resumeJob(pl.job)
			if !ok {
				continue
			}
			resumed[i] = rep
			pl.cell.Repeats[pl.job.Repeat] = &RepeatResult{Seed: pl.job.Seed, Resumed: true, Report: rep}
		}
	}
	res.Resumed = len(resumed)

	records, expected := telemetry.RunProgress(r.Progress)
	var todo []int // the plan indices to execute, in plan order
	for i, pl := range plan {
		if _, ok := resumed[i]; !ok {
			todo = append(todo, i)
			expected.Add(int64(pl.job.Config.Requests))
		}
	}

	// The checkpoint manifest is built once: its environment fields are
	// identical across the grid.
	man := obs.NewManifest("sweepfarm")

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	jobCh := make(chan int) // positions in todo
	go func() {
		defer close(jobCh)
		for k := range todo {
			select {
			case jobCh <- k:
			case <-ctx.Done():
				return
			}
		}
	}()

	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range jobCh {
				i := todo[k]
				pl := plan[i]
				// While at least as many jobs are unstarted as there are
				// workers, the pool alone keeps every core busy: the job
				// steps its channels inline, adding no goroutines and one
				// parcel per channel. The last jobs, fewer than the
				// workers, keep the channel workers so the tail still fills
				// every core.
				inline := len(todo)-k >= workers
				start := time.Now()
				rep, err := r.runJob(ctx, pl.job, inline)
				wall := time.Since(start).Seconds()
				if err != nil {
					errs[i] = fmt.Errorf("cell %s: %w", pl.job, err)
					continue
				}
				records.Add(uint64(pl.job.Config.Requests))
				// Each job owns its distinct Repeats slot, so no lock is
				// needed for the write (the slice itself never changes).
				// The report is stored before the checkpoint is written,
				// so a failed write is an error on the cell, not a lost
				// cell.
				pl.cell.Repeats[pl.job.Repeat] = &RepeatResult{Seed: pl.job.Seed, Report: rep}
				if r.ArtifactDir != "" {
					path := filepath.Join(r.ArtifactDir, pl.job.ArtifactName())
					if err := writeArtifact(path, man, pl.job, rep, wall); err != nil {
						errs[i] = fmt.Errorf("cell %s: %w", pl.job, err)
						continue
					}
				}
				if r.JobDone != nil {
					r.JobDone(pl.job, rep)
				}
			}
		}()
	}
	wg.Wait()

	var joined []error
	for i, pl := range plan {
		switch {
		case errs[i] != nil:
			res.Failed++
			joined = append(joined, errs[i])
		case pl.cell.Repeats[pl.job.Repeat] == nil:
			// Never scheduled or cancelled before completing.
			res.Failed++
		default:
			if !pl.cell.Repeats[pl.job.Repeat].Resumed {
				res.Executed++
			}
		}
	}
	if err := ctx.Err(); err != nil {
		joined = append(joined, fmt.Errorf("sweepfarm: grid interrupted (%d/%d jobs done): %w",
			res.Executed+res.Resumed, len(plan), err))
	}

	for _, c := range cells {
		if c.Complete() {
			c.Agg = AggregateCell(c)
		}
	}
	return res, errors.Join(joined...)
}

// runJob simulates one cell repeat: the catalog profile reseeded for the
// repeat, the named prefetcher, and the cell's configuration, driven
// through the cancellable streaming engine (partial reports of cancelled
// runs are discarded — only completed jobs checkpoint). An inline job steps
// its four channels on the calling goroutine (sim.Config.ParallelChannels
// false); the report is the same either way.
func (r *Runner) runJob(ctx context.Context, j Job, inline bool) (metrics.Report, error) {
	p, ok := workloads.ByAbbr(j.Cell.App)
	if !ok {
		return metrics.Report{}, fmt.Errorf("sweepfarm: unknown app %q", j.Cell.App)
	}
	p.Seed = j.Seed
	cfg, err := j.Config.engine(j.Cell.Prefetcher)
	if err != nil {
		return metrics.Report{}, err
	}
	cfg.SampleEvery = j.Config.SampleEvery
	cfg.ParallelChannels = !inline
	return sim.New(cfg).Run(ctx, p.Stream(j.Config.Requests), p.Abbr, j.Config.Warmup)
}
