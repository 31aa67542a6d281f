// Command bench is the repository benchmark. It builds planaria-sim,
// experiments and tracegen from source, generates each workload's inputs
// from a seed, times the CLIs end to end as child processes (one at a time,
// GOMAXPROCS pinned to the CPU count, -subshards 1), and times each
// simulator layer in a separate in-process traced run. README.md describes
// the workloads and metrics.
//
// Single-workload mode measures one workload; the last line of standard output is
// the JSON result (end-to-end metrics with -trace 0, per-layer with 1):
//
//	bash bench/run.sh --workload cfm-planaria-10m --seed 1 --seconds 20 --trace 0
//
// Full mode runs every workload, interleaving the timed invocations, and
// writes a results file with provenance and raw samples:
//
//	bash bench/run.sh -seed 1 -out results.json
//
// Compare mode checks two results files against the metrics' bounds:
//
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	workload := flag.String("workload", "", "measure this workload only (single-workload mode); empty runs every workload")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 20, "single-workload mode: length of the timed loop")
	traced := flag.Int("trace", 0, "single-workload mode: 1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	out := flag.String("out", "", "full mode: write the results JSON to this path")
	compare := flag.Bool("compare", false, "compare the two results files given as arguments and exit non-zero on a regression")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two results files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *traced))
	}
	if err := run(*workload, *seed, *seconds, *traced == 1, *out); err != nil {
		fatal(err)
	}
}

func run(workload string, seed int64, seconds float64, traced bool, out string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	root, err := findRoot()
	if err != nil {
		return err
	}
	s, err := newSession(ctx, root, os.Stderr)
	if err != nil {
		return err
	}
	defer s.Close()
	if workload == "" {
		return s.full(seed, out)
	}
	w, err := findWorkload(workload)
	if err != nil {
		return err
	}
	return s.drive(w, seed, seconds, traced)
}

// runResult is the last line single-workload mode prints.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// drive measures one workload and prints its metrics, then the JSON result.
func (s *session) drive(w workload, seed int64, seconds float64, traced bool) error {
	var (
		r    *wrun
		list = endToEnd
		raw  map[string]float64
		err  error
	)
	if traced {
		list = perLayer
		if r, err = s.prepareRun(w, seed); err != nil {
			return err
		}
		if _, _, ok := s.invoke(r, false); !ok {
			return fmt.Errorf("%s: the invocation behind the per-layer counts failed", w.name)
		}
		raw, err = s.tracedRun(r, r.lastWall, s.spansPath(w))
	} else if r, err = s.driveEndToEnd(w, seed, seconds); err == nil {
		raw, err = endToEndValues(r)
	}
	if err != nil {
		return err
	}
	vals, err := metricValues(list, raw)
	if err != nil {
		return err
	}
	printValues(os.Stdout, w.name+" ", list, vals)
	b, err := json.Marshal(runResult{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: vals})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// full runs every workload: inputs and one warm-up each, then fullRepeats
// rounds that make a batch of set-up runs and one timed invocation of each
// workload in turn, then the traced runs. It prints every metric and writes
// the results to out when set.
func (s *session) full(seed int64, out string) error {
	start := time.Now()
	var runs []*wrun
	for _, w := range workloadList {
		r, err := s.prepareRun(w, seed)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	for _, r := range runs {
		s.invoke(r, false)
	}
	for i := 0; i < fullRepeats && s.ctx.Err() == nil; i++ {
		s.logf("round %d/%d", i+1, fullRepeats)
		for _, r := range runs {
			s.setup(r, setupBatch)
			s.timed(r)
		}
	}
	for _, r := range runs {
		s.setup(r, setupRuns)
	}
	if err := s.ctx.Err(); err != nil {
		return err
	}
	res := &results{Workloads: map[string]*workloadResult{}}
	for _, r := range runs {
		if _, err := endToEndValues(r); err != nil {
			return err
		}
		raw, err := s.tracedRun(r, median(r.samples["wall_s"]), s.spansPath(r.w))
		if err != nil {
			return err
		}
		layer, err := metricValues(perLayer, raw)
		if err != nil {
			return err
		}
		wr := &workloadResult{Attempted: r.attempted, Failed: r.failed, Digest: r.digest,
			EndToEnd: map[string]summary{}, PerLayer: layer}
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = summarize(m.Unit, r.samples[m.Name])
		}
		res.Workloads[r.w.name] = wr
	}
	res.Provenance = s.newProvenance(seed, start)
	res.Provenance.ElapsedSec = time.Since(start).Seconds()

	for _, r := range runs {
		wr := res.Workloads[r.w.name]
		fmt.Printf("%s: %d/%d invocations failed\n", r.w.name, wr.Failed, wr.Attempted)
		for _, m := range endToEnd {
			sm := wr.EndToEnd[m.Name]
			tail := ""
			if sm.Tail != "" {
				tail = fmt.Sprintf(" %s %.6g", sm.Tail, sm.TailVal)
			}
			fmt.Printf("  %-48s %14.6g %s  [q1 %.6g, q3 %.6g, n=%d%s]\n",
				m.Name, sm.Median, m.Unit, sm.Q1, sm.Q3, sm.N, tail)
		}
		printValues(os.Stdout, "  ", perLayer, wr.PerLayer)
	}
	if out != "" {
		if err := writeResults(out, res); err != nil {
			return err
		}
		s.logf("wrote %s", out)
	}
	return nil
}

// spansPath is where a workload's traced-run spans are written.
func (s *session) spansPath(w workload) string {
	return filepath.Join(s.root, ".bench_build", "spans", w.name+".json")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
