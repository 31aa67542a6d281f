// Command experiments regenerates the paper's evaluation figures and tables
// on the synthetic workload catalog.
//
// Usage:
//
//	experiments [-n requests] [-run id | -grid grid.json] [-repeats R]
//
// where id is one of: all, fig2, fig4, fig5, fig7, fig8, fig9, fig9b, fig10,
// tab-ipc, tab-traffic, tab-storage, cache-study, abl-coord, abl-dist,
// abl-pt, csv.
//
// Every id but fig2, fig4, fig5 and tab-storage is a grid of (app ×
// prefetcher × variant) cells that runs once on the sweep farm, and -grid
// runs a grid file in its place, rendered as the farm's mean ± 95 % CI
// tables. The flags mean the same for every grid (see EXPERIMENTS.md,
// "Sweep farm"): -artifact-dir checkpoints one artifact per (cell, repeat)
// and resumes whatever is already there, -repeats R > 1 adds the CI tables,
// and -json, -csv and -latex write the run's completed cells.
//
//	experiments -run fig7 -json fig7.json            # one combined artifact
//	experiments -run fig7 -artifact-dir out/         # checkpoint each cell, resume from out/
//	experiments -run abl-dist -repeats 3 -csv d.csv  # R=3 with mean ± 95% CI
//	experiments -grid grid.json -artifact-dir farm/ -latex t.tex
//	experiments -run fig8 -sample-every 50000 -json fig8.json
//	experiments -validate-artifact out.json          # parse + validate, exit
//	experiments -validate-trace run.trace.json       # parse + validate a Chrome trace, exit
//	experiments -validate-metrics live/metrics.prom  # parse + validate a Prometheus text exposition, exit
//	experiments -run all -live-dir live/             # live metrics + progress files while the sweep runs
//
// Interrupting a run (SIGINT/SIGTERM) checkpoints cleanly; re-running the
// same command executes only the jobs that have no valid artifact. A run
// with a failed job still writes every completed cell to -json and -csv,
// and exits 1.
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
	jsonPath        = flag.String("json", "", "write a combined JSON run artifact (the summary values and every completed cell's first repeat) to this path")
	artifactDir     = flag.String("artifact-dir", "", "checkpoint each completed job into this directory as a JSON artifact, and resume the jobs whose checkpoints match")
	sampleEvery     = flag.Uint64("sample-every", 0, "emit a windowed time-series sample every N requests inside each run (0 disables)")
	cpuprofile      = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this path")
	memprofile      = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this path")
	validate        = flag.String("validate-artifact", "", "read and validate the JSON artifact at this path, then exit (CI smoke check)")
	validateTrace   = flag.String("validate-trace", "", "read and validate the Chrome trace-event JSON at this path, then exit (CI smoke check)")
	validateMetrics = flag.String("validate-metrics", "", "read and validate the Prometheus text exposition at this path (e.g. a -live-dir metrics.prom), then exit (CI smoke check)")
	liveDir         = flag.String("live-dir", "", "rewrite the run's live views (metrics.prom, progress.json) in this directory every second and at exit")
	extraPF         = flag.String("extra-pf", "", "comma-separated extra prefetchers added to the fig7/csv sweep set, e.g. planaria-tournament (see sim.PrefetcherNames)")
	repeats         = flag.Int("repeats", 1, "seeded repeats per grid cell; values > 1 add the mean ± 95% CI tables (see EXPERIMENTS.md)")
	gridPath        = flag.String("grid", "", "JSON grid spec (apps × prefetchers × variants × repeats) run on the sweep farm in place of -run, rendered as mean ± 95% CI tables")
	csvOut          = flag.String("csv", "", "write the grouped statistics CSV (mean/std/ci95 per metric and cell) to this path")
	latexOut        = flag.String("latex", "", "write LaTeX hit-rate and AMAT tables to this path")
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

	e, eerr := experiment(opts)
	if eerr != nil {
		return fail(eerr)
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
	// way out after the ticker stops. They are labelled with the grid file
	// or the -run id.
	if *liveDir != "" {
		opts.Progress = telemetry.NewRegistry()
		label := *run
		if *gridPath != "" {
			label = *gridPath
		}
		live, err := obs.NewLiveViews(*liveDir, obs.LiveConfig{
			Telemetry: opts.Progress,
			Tool:      "experiments",
			Workload:  label,
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

	// SIGINT/SIGTERM cancel at the next chunk boundary: completed jobs stay
	// checkpointed, so re-running the same command picks up where the
	// interrupt landed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	man := obs.NewManifest("experiments")
	man.Requests = *n
	man.Warmup = sim.ClampWarmup(*warmup)
	man.SampleEvery = *sampleEvery
	start := time.Now()
	out, err := experiments.Run(ctx, os.Stdout, e, opts)
	// A failed run still writes its outputs: every completed cell, with
	// the failure in the manifest — a degraded run leaves evidence, not
	// nothing (docs/OBSERVABILITY.md, "Failure model"). The exit status
	// reports the failure either way.
	man.RecordFailure(err, nil)
	man.WallTimeSec = time.Since(start).Seconds()
	if err := errors.Join(err, writeOutputs(os.Stdout, man, out)); err != nil {
		return fail(err)
	}
	return 0
}

// runOptions builds the experiment options the flags select, without the
// -live-dir progress registry.
func runOptions() (experiments.Options, error) {
	if *n <= 0 {
		return experiments.Options{}, fmt.Errorf("-n %d: the trace length must be positive", *n)
	}
	if *subshards > 1 {
		return experiments.Options{}, fmt.Errorf("-subshards %d: sub-sharding was removed; the engine runs one unit per channel", *subshards)
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

// experiment returns the experiment the flags select, -grid's or -run's,
// with -repeats applied. Outputs that need a grid are refused on an
// experiment that simulates nothing.
func experiment(opts experiments.Options) (experiments.Experiment, error) {
	var e experiments.Experiment
	if *gridPath != "" {
		g, err := sweepfarm.LoadGrid(*gridPath)
		if err != nil {
			return e, err
		}
		e.Grid = &g
	} else {
		var err error
		if e, err = experiments.Lookup(*run, opts); err != nil {
			return e, err
		}
	}
	if e.Grid == nil {
		for _, f := range []struct {
			name string
			set  bool
		}{{"-csv", *csvOut != ""}, {"-latex", *latexOut != ""}, {"-repeats", *repeats > 1}} {
			if f.set {
				return e, fmt.Errorf("%s: -run %s simulates nothing", f.name, *run)
			}
		}
	} else if *repeats > 1 {
		// An explicit -repeats wins over the grid file's value; -repeats 1
		// (the flag default) defers to the file.
		e.Grid.Repeats = *repeats
	}
	return e, nil
}

// writeOutputs writes the -json, -csv and -latex outputs of one run, each
// from every completed cell, and notes each written file on w.
func writeOutputs(w io.Writer, man obs.Manifest, out experiments.Outcome) error {
	var errs []error
	if *jsonPath != "" {
		art := obs.Artifact{Manifest: man, Summary: out.Summary, Cells: experiments.Cells(out.Farm)}
		if err := obs.WriteFile(*jsonPath, art); err != nil {
			errs = append(errs, err)
		} else {
			partial := ""
			if man.Failure != "" {
				partial = "partial, "
			}
			fmt.Fprintf(w, "wrote %s (%s%d cells, %d summary values)\n",
				*jsonPath, partial, len(art.Cells), len(art.Summary))
		}
	}
	if *csvOut != "" {
		errs = append(errs, writeFile(w, *csvOut, func(f io.Writer) error {
			return sweepfarm.WriteGroupedCSV(f, out.Farm)
		}))
	}
	if *latexOut != "" {
		errs = append(errs, writeFile(w, *latexOut, func(f io.Writer) error {
			if err := sweepfarm.WriteLaTeX(f, out.Farm, "hit_rate"); err != nil {
				return err
			}
			return sweepfarm.WriteLaTeX(f, out.Farm, "amat_cycles")
		}))
	}
	return errors.Join(errs...)
}

// writeFile writes path through obs.WriteAtomic and notes it on w.
func writeFile(w io.Writer, path string, write func(io.Writer) error) error {
	if err := obs.WriteAtomic(path, write); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// fail logs err and returns the exit status of a failed run.
func fail(err error) int {
	logger.Error(err.Error())
	return 1
}
