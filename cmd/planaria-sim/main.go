// Command planaria-sim runs the memory-system simulator on one workload (a
// catalog app or a trace file) under one prefetcher and prints the full
// report.
//
// Usage:
//
//	planaria-sim -app CFM -pf planaria -n 400000
//	planaria-sim -trace trace.bin -pf spp
//	planaria-sim -app CFM -tournament -attrib
//
// Observability (see docs/OBSERVABILITY.md):
//
//	planaria-sim -app CFM -pf planaria -json out.json -sample-every 50000
//	planaria-sim -app CFM -pf planaria -cpuprofile cpu.out -memprofile mem.out
//
// Decision-level tracing and live views (see docs/TRACING.md):
//
//	planaria-sim -app CFM -pf planaria -trace-out run.trace.json -attrib
//	planaria-sim -app CFM -pf planaria -progress -live-dir live/
//
// Live telemetry and structured logging (see docs/OBSERVABILITY.md):
//
//	planaria-sim -app CFM -pf planaria -telemetry -json out.json  # report carries the telemetry summary
//	planaria-sim -app CFM -pf planaria -live-dir live/            # Prometheus text format in live/metrics.prom
//	planaria-sim -app CFM -pf planaria -log-level debug -log-json
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
	"syscall"
	"time"

	"repro/internal/events"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// logger is the process-wide structured logger; replaced right after flag
// parsing with one honoring -log-level/-log-json. The default keeps fail()
// usable for flag-validation errors that fire before the replacement.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

// The command line. Package-level so that tests read the same defaults.
var (
	app          = flag.String("app", "CFM", "catalog application abbreviation (see Table 2)")
	traceFile    = flag.String("trace", "", "binary trace file (overrides -app)")
	pf           = flag.String("pf", "planaria", fmt.Sprintf("prefetcher %v", sim.PrefetcherNames()))
	tournament   = flag.Bool("tournament", false, "shorthand for -pf planaria-tournament: the composite plus the stride/markov/accel components under the set-dueling meta-predictor (docs/PREFETCHERS.md)")
	n            = flag.Int("n", 800_000, "requests to generate when using -app")
	verbose      = flag.Bool("v", false, "print detailed DRAM/cache counters")
	warmup       = flag.Float64("warmup", 0, "fraction of the trace run before statistics start (0 disables)")
	_            = flag.Bool("mmap", true, "deprecated and ignored: -trace files are always streamed through one buffered reader; kept so -mmap and -mmap=false still parse")
	jsonPath     = flag.String("json", "", "write a JSON run artifact (manifest + report + time series) to this path")
	sampleEvery  = flag.Uint64("sample-every", 0, "emit a windowed time-series sample every N requests (0 disables)")
	sampleCycles = flag.Uint64("sample-cycles", 0, "emit a windowed time-series sample every N trace cycles (0 disables)")
	cpuprofile   = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this path")
	memprofile   = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this path")
	traceOut     = flag.String("trace-out", "", "record decision events and write a Chrome trace-event JSON (Perfetto-loadable) to this path")
	attrib       = flag.Bool("attrib", false, "record decision events and print the per-prefetcher attribution table")
	liveDir      = flag.String("live-dir", "", "rewrite the run's live views (metrics.prom, progress.json, attrib.json) in this directory every second and at exit")
	progress     = flag.Bool("progress", false, "print a one-line progress report to stderr every second")
	telemetryOn  = flag.Bool("telemetry", false, "enable live metrics instruments (latency histograms, per-component counters); implied by -live-dir and -progress; adds the telemetry summary to reports and -json artifacts (docs/OBSERVABILITY.md)")
	logLevel     = flag.String("log-level", "info", "minimum structured-log level on stderr: debug, info, warn or error")
	logJSON      = flag.Bool("log-json", false, "emit structured logs as JSON lines instead of key=value text")
	// Deprecated: -subshards must be 0 or 1; engineConfig refuses more.
	subshards = flag.Int("subshards", 1, "deprecated: must be 0 or 1, kept so -subshards 1 still parses; the engine runs one unit per channel")
)

func main() { os.Exit(execute()) }

// execute is the command. It returns the exit status instead of calling
// os.Exit, so the deferred cleanups — the profiles, the live views, the
// trace file — run on every way out, failures included.
func execute() (code int) {
	flag.Parse()

	level, lerr := telemetry.ParseLevel(*logLevel)
	if lerr != nil {
		return fail(lerr)
	}
	logger = telemetry.NewLogger(os.Stderr, level, *logJSON).
		With("tool", "planaria-sim", "run_id", telemetry.NewRunID())
	if *n < 0 {
		return fail(fmt.Errorf("-n %d: the request count cannot be negative", *n))
	}

	// Build the record stream: from a binary trace file (never materialized;
	// the file's size declares the record count so warmup fractions still
	// work) or from the seeded workload generator.
	var (
		s       trace.Stream
		name    string
		seed    int64
		records int
	)
	if *traceFile != "" {
		tf, err := trace.Open(*traceFile)
		if err != nil {
			return fail(err)
		}
		defer tf.Close()
		ts, err := tf.Stream()
		if err != nil {
			return fail(err)
		}
		name, s, records = *traceFile, ts, tf.Len()
	} else {
		p, ok := workloads.ByAbbr(*app)
		if !ok {
			return fail(fmt.Errorf("unknown app %q (have %v)", *app, workloads.Abbrs()))
		}
		name, seed, records = p.Abbr, p.Seed, *n
		s = p.Stream(*n)
	}

	cfg, err := engineConfig()
	if err != nil {
		return fail(err)
	}
	reg := cfg.Telemetry
	eng := sim.New(cfg)

	// The -progress line and the live views share one 1-second ticker.
	// The views are written once more on every way out, after it stops.
	var ticks []func()
	if *progress {
		ticks = append(ticks, progressLine(reg))
	}
	if *liveDir != "" {
		live, err := obs.NewLiveViews(*liveDir, obs.LiveConfig{
			Recorder:   eng.Events(),
			Telemetry:  reg,
			Tool:       "planaria-sim",
			Workload:   name,
			Prefetcher: eng.PrefetcherName(),
		})
		if err != nil {
			return fail(err)
		}
		defer func() {
			if err := live.Write(); err != nil {
				code = fail(err)
			}
		}()
		ticks = append(ticks, func() {
			if err := live.Write(); err != nil {
				logger.Warn("live views not written", "err", err)
			}
		})
	}
	stopTicks := obs.Every(time.Second, ticks...)
	defer stopTicks()

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

	man := obs.NewManifest("planaria-sim")
	man.Workload, man.Prefetcher = name, eng.PrefetcherName()
	man.TraceLen, man.Requests = records, records
	man.Warmup = sim.ClampWarmup(*warmup)
	man.SampleEvery = *sampleEvery
	man.Seed = seed
	start := time.Now()

	// Ctrl-C / SIGTERM cancel the run cooperatively: the engine stops at
	// the next chunk boundary and hands back a partial report, which is
	// printed (and written as an artifact) like any other degraded run.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep, err := eng.Run(ctx, s, name, *warmup)
	stopSignals()
	stopTicks()
	if err != nil && !rep.Truncated {
		// Nothing ran (e.g. a warmup fraction on an unsized stream): a
		// configuration error, not a degraded run — no partial results
		// worth salvaging.
		return fail(err)
	}
	man.WallTimeSec = time.Since(start).Seconds()
	man.RecordFailure(err, &rep)
	if err != nil {
		reason := "failed"
		if errors.Is(err, context.Canceled) {
			reason = "interrupted"
		}
		logger.Error("run "+reason+"; partial report covers records before the failure position",
			"err", err, "failed_at", rep.FailedAt)
	}

	fmt.Print(rep)
	if *verbose {
		fmt.Printf("\ncache: %+v\n", rep.Cache)
		fmt.Printf("dram:  %+v\n", rep.DRAM)
		fmt.Printf("queue: %+v\n", rep.Prefetch)
		fmt.Printf("late prefetch hits: %d\n", rep.LatePrefetchHits)
		fmt.Printf("cycles: %d\n", rep.Cycles)
	}

	// Event-level outputs. All of these are exported even on a truncated
	// run — a trace of the records before a failure is exactly what one
	// debugs with.
	var attribSnap *events.AttribSnapshot
	if rec := eng.Events(); rec != nil {
		attribSnap = rec.Attrib()
	}
	if *attrib && attribSnap != nil {
		printAttrib(attribSnap)
	}
	if *traceOut != "" {
		if werr := writeChromeTrace(*traceOut, eng, name); werr != nil {
			return fail(werr)
		}
		fmt.Printf("wrote %s (Chrome trace-event JSON; open in ui.perfetto.dev)\n", *traceOut)
	}
	if *jsonPath != "" {
		art := obs.Artifact{Manifest: man, Report: &rep, Attribution: attribSnap}
		if err := obs.WriteFile(*jsonPath, art); err != nil {
			return fail(err)
		}
		samples := 0
		if rep.Series != nil {
			samples = len(rep.Series.Samples)
		}
		fmt.Printf("wrote %s (%d time-series samples)\n", *jsonPath, samples)
	}
	if err != nil {
		// Degraded run: everything salvageable was printed and written;
		// the exit status still reports the failure.
		return 1
	}
	return 0
}

// engineConfig builds the engine configuration the flags select.
func engineConfig() (sim.Config, error) {
	name := *pf
	if *tournament {
		name = "planaria-tournament"
	}
	factory, err := sim.NamedPrefetcher(name)
	if err != nil {
		return sim.Config{}, err
	}
	if *subshards > 1 {
		return sim.Config{}, fmt.Errorf("-subshards %d: sub-sharding was removed; the engine runs one unit per channel", *subshards)
	}
	cfg := sim.DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.SampleEvery = *sampleEvery
	cfg.SampleEveryCycles = *sampleCycles
	// Event tracing: -trace-out needs the per-channel rings; -attrib and
	// -live-dir only need the attribution counters (ring size 0).
	if *traceOut != "" {
		cfg.Events = &events.Config{RingSize: events.DefaultRingSize}
	} else if *attrib || *liveDir != "" {
		cfg.Events = &events.Config{}
	}
	// Run progress is a pair of registry series, so -progress and
	// -live-dir always build the registry.
	if *telemetryOn || *liveDir != "" || *progress {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	return cfg, nil
}

// progressLine returns a tick that logs a one-line progress report: records
// done, live req/s, ETA and the live p99 demand read latency, from the
// registry's progress view with elapsed time counted from this call.
func progressLine(reg *telemetry.Registry) func() {
	start := time.Now()
	return func() {
		p := reg.Progress(start)
		attrs := []any{
			"records", p.Records,
			"req_per_s", int64(p.ReqPerSec),
		}
		if p.Total > 0 {
			attrs = append(attrs,
				"total", p.Total,
				"pct", fmt.Sprintf("%.1f", 100*p.Fraction),
				"eta_s", int64(p.ETASec))
		}
		if p.P99DemandLatCycles > 0 {
			attrs = append(attrs, "p99_demand_lat_cycles", p.P99DemandLatCycles)
		}
		logger.Info("progress", attrs...)
	}
}

// printAttrib renders the attribution table the way docs/TRACING.md shows it:
// one row per sub-prefetcher with its lifecycle totals, then the arbitration
// suppression histogram.
func printAttrib(s *events.AttribSnapshot) {
	fmt.Println("\nprefetch lifecycle attribution (event-level):")
	fmt.Printf("  %-10s %10s %10s %10s %10s %14s\n",
		"origin", "issued", "filled", "used", "late", "evicted-unused")
	for _, o := range s.Origins {
		fmt.Printf("  %-10s %10d %10d %10d %10d %14d\n",
			o.Origin, o.Issued, o.Filled, o.Used, o.Late, o.EvictedUnused)
	}
	if len(s.Suppression) > 0 {
		fmt.Println("  arbitration suppression reasons:")
		for _, r := range []string{
			"slp-priority", "no-metadata", "disabled",
			"leader-region", "meta-trust", "meta-fallback",
		} {
			if n, ok := s.Suppression[r]; ok {
				fmt.Printf("    %-14s %10d\n", r, n)
			}
		}
	}
	fmt.Printf("  learning: %d SLP promotions, %d SLP snapshots, %d TLP neighbor matches\n",
		s.SLPPromotions, s.SLPSnapshots, s.TLPNeighborMatches)
	if s.DroppedEvents > 0 {
		fmt.Printf("  (ring overflow dropped %d events; attribution counters are unaffected)\n",
			s.DroppedEvents)
	}
}

// writeChromeTrace exports the engine's event rings to path through
// obs.WriteAtomic, so a failed export leaves any earlier file intact.
func writeChromeTrace(path string, eng *sim.Engine, workload string) error {
	meta := events.TraceMeta{Tool: "planaria-sim", Workload: workload, Prefetcher: eng.PrefetcherName()}
	return obs.WriteAtomic(path, func(w io.Writer) error {
		return events.WriteChromeTrace(w, eng.Events(), meta)
	})
}

// fail logs err and returns the exit status of a failed run.
func fail(err error) int {
	logger.Error(err.Error())
	return 1
}
