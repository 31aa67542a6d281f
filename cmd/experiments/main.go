// Command experiments regenerates the paper's evaluation figures and tables
// on the synthetic workload catalog.
//
// Usage:
//
//	experiments [-n requests] [-run id]
//
// where id is one of: all, fig2, fig4, fig5, fig7, fig8, fig9, fig10,
// tab-ipc, tab-traffic, tab-storage.
//
// Observability (see docs/OBSERVABILITY.md):
//
//	experiments -run fig7 -json fig7.json            # one combined artifact
//	experiments -run fig7 -artifact-dir out/         # one artifact per cell
//	experiments -run fig8 -sample-every 50000 -json fig8.json
//	experiments -validate-artifact out.json          # parse + validate, exit
//	experiments -validate-trace run.trace.json       # parse + validate a Chrome trace, exit
//	experiments -validate-metrics live/metrics.prom  # parse + validate a Prometheus text exposition, exit
//	experiments -run all -live-dir live/             # live metrics + progress files while the sweep runs
//
// Sweep farm (see EXPERIMENTS.md, "Sweep farm"): -repeats > 1 or -grid
// switches to the resumable grid runner, which checkpoints one artifact per
// (cell, repeat) into -artifact-dir, resumes whatever is already there, and
// reports mean ± 95 % CI per metric:
//
//	experiments -repeats 5 -artifact-dir farm/ -csv farm.csv   # R=5 with resume
//	experiments -grid grid.json -artifact-dir farm/ -latex t.tex
//
// Interrupting a farm run (SIGINT/SIGTERM) checkpoints cleanly; re-running
// the same command executes only the jobs that have no valid artifact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/sweepfarm"
	"repro/internal/telemetry"
)

// logger is the process-wide structured logger; replaced right after flag
// parsing with one honoring -log-level/-log-json. The default keeps fail()
// usable for flag-validation errors that fire before the replacement.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// The command line. Package-level so that tests read the same defaults.
var (
	n               = flag.Int("n", 800_000, "requests per application trace")
	warmup          = flag.Float64("warmup", 0.2, "fraction of each trace run before statistics start (clamped to [0, 0.9]; 0 disables)")
	run             = flag.String("run", "all", "experiment id (all, fig2, fig4, fig5, fig7, fig8, fig9, fig9b, fig10, tab-ipc, tab-traffic, tab-storage, cache-study, abl-coord, abl-dist, abl-pt, csv)")
	jsonPath        = flag.String("json", "", "write a combined JSON run artifact to this path (not in farm mode: -grid or -repeats > 1)")
	artifactDir     = flag.String("artifact-dir", "", "write one JSON artifact per (app, prefetcher) sweep cell into this directory")
	sampleEvery     = flag.Uint64("sample-every", 0, "emit a windowed time-series sample every N requests inside each run (0 disables)")
	cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this path")
	memprofile      = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this path")
	validate        = flag.String("validate-artifact", "", "read and validate the JSON artifact at this path, then exit (CI smoke check)")
	validateTrace   = flag.String("validate-trace", "", "read and validate the Chrome trace-event JSON at this path, then exit (CI smoke check)")
	validateMetrics = flag.String("validate-metrics", "", "read and validate the Prometheus text exposition at this path (e.g. a -live-dir metrics.prom), then exit (CI smoke check)")
	liveDir         = flag.String("live-dir", "", "rewrite the sweep's live views (metrics.prom, progress.json) in this directory every second and at exit")
	extraPF         = flag.String("extra-pf", "", "comma-separated extra prefetchers added to the fig7/csv sweep set, e.g. planaria-tournament (see sim.PrefetcherNames)")
	repeats         = flag.Int("repeats", 1, "seeded repeats per sweep cell; values > 1 run the resumable sweep farm and report mean ± 95% CI (see EXPERIMENTS.md)")
	gridPath        = flag.String("grid", "", "JSON grid spec (apps × prefetchers × variants × repeats) run on the sweep farm; overrides -run")
	csvOut          = flag.String("csv", "", "farm mode: write the grouped statistics CSV (mean/std/ci95 per metric) to this path")
	latexOut        = flag.String("latex", "", "farm mode: write LaTeX hit-rate and AMAT tables to this path")
	logLevel        = flag.String("log-level", "info", "minimum structured-log level on stderr: debug, info, warn or error")
	logJSON         = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")
	// Deprecated: -subshards must be 0 or 1; runOptions refuses more.
	subshards = flag.Int("subshards", 1, "deprecated: must be 0 or 1, kept so -subshards 1 still parses; the engine runs one unit per channel")
)

func main() { os.Exit(execute()) }

// execute is the command. It returns the exit status instead of calling
// os.Exit, so the deferred cleanups — the profiles and the live views —
// run on every way out, failures included.
func execute() (code int) {
	flag.Parse()

	level, lerr := telemetry.ParseLevel(*logLevel)
	if lerr != nil {
		return fail(lerr)
	}
	logger = telemetry.NewLogger(os.Stderr, level, *logJSON).
		With("tool", "experiments", "run_id", telemetry.NewRunID())

	opts, oerr := runOptions()
	if oerr != nil {
		return fail(oerr)
	}

	if *validate != "" {
		art, err := obs.ReadFile(*validate)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s: valid (schema %d, tool %s, %d cells, %d summary values)\n",
			*validate, art.Manifest.SchemaVersion, art.Manifest.Tool,
			len(art.Cells), len(art.Summary))
		return 0
	}
	if *validateTrace != "" {
		f, err := os.Open(*validateTrace)
		if err != nil {
			return fail(err)
		}
		n, err := events.ValidateChromeTrace(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s: valid (%d trace events)\n", *validateTrace, n)
		return 0
	}
	if *validateMetrics != "" {
		f, err := os.Open(*validateMetrics)
		if err != nil {
			return fail(err)
		}
		err = telemetry.ValidateExposition(f)
		f.Close()
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s: valid Prometheus text exposition\n", *validateMetrics)
		return 0
	}

	// The profiles are written on every way out from here on. The heap
	// profile, deferred last, is written before the CPU profile stops.
	if *cpuprofile != "" {
		stop, err := obs.StartCPUProfile(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := stop(); err != nil {
				code = fail(err)
			}
		}()
	}
	if *memprofile != "" {
		defer func() {
			if err := obs.WriteHeapProfile(*memprofile); err != nil {
				code = fail(err)
			}
		}()
	}

	// The live views are rewritten every second, and once more on every
	// way out after the ticker stops.
	if *liveDir != "" {
		opts.Progress = telemetry.NewRegistry()
		live, err := obs.NewLiveViews(*liveDir, obs.LiveConfig{
			Telemetry: opts.Progress,
			Tool:      "experiments",
			Workload:  *run,
		})
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := live.Write(); err != nil {
				code = fail(err)
			}
		}()
		defer obs.Every(time.Second, func() {
			if err := live.Write(); err != nil {
				logger.Warn("live views not written", "err", err)
			}
		})()
	}
	w := os.Stdout

	if farmMode() {
		if err := runFarm(w, *gridPath, *repeats, opts, *csvOut, *latexOut); err != nil {
			return fail(err)
		}
		return 0
	}

	man := obs.NewManifest("experiments")
	man.Requests = *n
	man.Warmup = sim.ClampWarmup(*warmup)
	man.SampleEvery = *sampleEvery
	start := time.Now()

	// Each case prints its text tables and, where natural, contributes
	// sweep cells and headline scalars to the combined -json artifact.
	summary := map[string]float64{}
	var reps map[string]map[string]metrics.Report
	var err error
	switch *run {
	case "all":
		reps, err = experiments.RunAll(w, opts)
	case "fig2":
		summary["fig2_timeline_accesses"] = float64(experiments.Fig2(w, opts))
	case "fig4":
		summary["fig4_overlap_rate_avg"] = experiments.Fig4(w, opts)
	case "fig5":
		at4, at64 := experiments.Fig5(w, opts)
		summary["fig5_neighbors_at4"] = at4
		summary["fig5_neighbors_at64"] = at64
	case "fig7":
		reps, err = experiments.Fig7(w, opts)
	case "fig8", "tab-ipc", "tab-traffic", "fig10":
		r, e := experiments.Fig7(w, opts)
		if e != nil {
			err = e
			break
		}
		reps = r
		switch *run {
		case "fig8":
			vsNone, vsBOP, vsSPP := experiments.Fig8(w, r)
			summary["fig8_amat_reduction_vs_none"] = vsNone
			summary["fig8_amat_reduction_vs_bop"] = vsBOP
			summary["fig8_amat_reduction_vs_spp"] = vsSPP
		case "tab-ipc":
			vsNone, vsBOP, vsSPP := experiments.TableIPC(w, r)
			summary["ipc_uplift_vs_none"] = vsNone
			summary["ipc_uplift_vs_bop"] = vsBOP
			summary["ipc_uplift_vs_spp"] = vsSPP
		case "tab-traffic":
			bop, spp, pl := experiments.TableTraffic(w, r)
			summary["traffic_overhead_bop"] = bop
			summary["traffic_overhead_spp"] = spp
			summary["traffic_overhead_planaria"] = pl
		case "fig10":
			pl, bop, spp := experiments.Fig10(w, r)
			summary["power_overhead_planaria"] = pl
			summary["power_overhead_bop"] = bop
			summary["power_overhead_spp"] = spp
		}
	case "fig9":
		var avg float64
		avg, _, err = experiments.Fig9(w, opts)
		summary["fig9_slp_share_avg"] = avg
	case "fig9b":
		var avg float64
		avg, err = experiments.Fig9b(w, opts)
		summary["fig9b_slp_share_avg"] = avg
	case "tab-storage":
		var kb float64
		kb, err = experiments.TableStorage(w)
		summary["planaria_storage_kb"] = kb
	case "cache-study":
		var amats map[string]float64
		amats, err = experiments.CacheStudy(w, opts, nil)
		for k, v := range amats {
			summary["cache_study_amat:"+k] = v
		}
	case "abl-coord":
		_, err = experiments.AblationCoordinator(w, opts)
	case "abl-dist":
		_, err = experiments.AblationDistance(w, opts, nil)
	case "abl-pt":
		_, err = experiments.AblationPTSize(w, opts, nil)
	case "csv":
		r, e := experiments.Sweep(opts.EvalSet(), opts)
		if e != nil {
			err = e
			break
		}
		reps = r
		err = experiments.WriteCSV(w, r)
	default:
		err = fmt.Errorf("unknown experiment %q", *run)
	}
	// A failed run still writes the artifact when one was requested: the
	// sweep functions hand back the cells that completed, and the manifest
	// records the failure — a degraded run leaves evidence, not nothing
	// (docs/OBSERVABILITY.md, "Failure model"). The exit status reports
	// the failure either way.
	man.RecordFailure(err, nil)
	if *jsonPath != "" {
		man.WallTimeSec = time.Since(start).Seconds()
		art := obs.Artifact{Manifest: man}
		if len(summary) > 0 {
			art.Summary = summary
		}
		if len(reps) > 0 {
			art.Cells = experiments.Cells(reps)
		}
		if werr := obs.WriteFile(*jsonPath, art); werr != nil {
			return fail(werr)
		}
		partial := ""
		if err != nil {
			partial = "partial, "
		}
		fmt.Fprintf(w, "wrote %s (%s%d cells, %d summary values)\n",
			*jsonPath, partial, len(art.Cells), len(art.Summary))
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// farmMode reports whether the flags select the sweep farm.
func farmMode() bool { return *gridPath != "" || *repeats > 1 }

// runOptions builds the experiment options the flags select, without the
// -live-dir progress registry.
func runOptions() (experiments.Options, error) {
	if *n <= 0 {
		return experiments.Options{}, fmt.Errorf("-n %d: the trace length must be positive", *n)
	}
	if *subshards > 1 {
		return experiments.Options{}, fmt.Errorf("-subshards %d: sub-sharding was removed; the engine runs one unit per channel", *subshards)
	}
	if *jsonPath != "" && farmMode() {
		return experiments.Options{}, errors.New("-json: the sweep farm (-grid, -repeats > 1) writes -artifact-dir, -csv and -latex, not a combined artifact")
	}
	var extras []string
	if *extraPF != "" {
		for _, pf := range strings.Split(*extraPF, ",") {
			pf = strings.TrimSpace(pf)
			if pf == "" {
				continue
			}
			if _, err := sim.NamedPrefetcher(pf); err != nil {
				return experiments.Options{}, err
			}
			extras = append(extras, pf)
		}
	}
	return experiments.Options{
		Requests:         *n,
		Warmup:           *warmup,
		SampleEvery:      *sampleEvery,
		ArtifactDir:      *artifactDir,
		ExtraPrefetchers: extras,
	}, nil
}

// runFarm executes the sweep-farm path: a grid loaded from -grid (or the
// default catalog × EvalSet grid), R repeats per cell, resumable through
// opts.ArtifactDir. SIGINT/SIGTERM cancel at the next chunk boundary —
// completed jobs stay checkpointed, so re-running the same command picks up
// where the interrupt landed.
func runFarm(w io.Writer, gridPath string, repeats int, opts experiments.Options, csvOut, latexOut string) error {
	grid := sweepfarm.Grid{Prefetchers: opts.EvalSet()}
	if gridPath != "" {
		g, err := sweepfarm.LoadGrid(gridPath)
		if err != nil {
			return err
		}
		grid = g
	}
	if repeats > 1 {
		// An explicit -repeats wins over the grid file's value; -repeats 1
		// (the flag default) defers to the file.
		grid.Repeats = repeats
	}
	if err := grid.Validate(); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runner := &sweepfarm.Runner{
		Grid:        grid,
		Base:        opts.FarmConfig(),
		ArtifactDir: opts.ArtifactDir,
		Progress:    opts.Progress,
		Verbose:     os.Stderr,
	}
	res, runErr := runner.Run(ctx)
	if res != nil {
		sweepfarm.TableHitRate(w, res)
		sweepfarm.TableAMAT(w, res)
		sweepfarm.TablePower(w, res)
		fmt.Fprintf(w, "\nfarm: %d jobs executed, %d resumed, %d failed\n",
			res.Executed, res.Resumed, res.Failed)
		if csvOut != "" {
			if err := obs.WriteAtomic(csvOut, func(f io.Writer) error {
				return sweepfarm.WriteGroupedCSV(f, res)
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", csvOut)
		}
		if latexOut != "" {
			if err := obs.WriteAtomic(latexOut, func(f io.Writer) error {
				if err := sweepfarm.WriteLaTeX(f, res, "hit_rate"); err != nil {
					return err
				}
				return sweepfarm.WriteLaTeX(f, res, "amat_cycles")
			}); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", latexOut)
		}
	}
	return runErr
}

// fail logs err and returns the exit status of a failed run.
func fail(err error) int {
	logger.Error(err.Error())
	return 1
}
