// Command trace-analyze runs the paper's trace-characterisation experiments
// (Figures 2, 4 and 5) on a trace file or a generated catalog workload.
//
// Usage:
//
//	trace-analyze -app CFM -n 400000 -what overlap
//	trace-analyze -trace fort.bin -what neighbors
//	trace-analyze -app HoK -what snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "CFM", "catalog application abbreviation")
	traceFile := flag.String("trace", "", "binary trace file (overrides -app)")
	n := flag.Int("n", 400_000, "requests to generate when using -app")
	what := flag.String("what", "all", "analysis: overlap, neighbors, snapshot, stats, all")
	diff := flag.Int("diff", 4, "bitmap difference threshold for the neighbour test")
	flag.Parse()
	if *n < 0 {
		fatal(fmt.Errorf("-n %d: the request count cannot be negative", *n))
	}

	var (
		t    trace.Trace
		name string
	)
	if *traceFile != "" {
		tt, err := readTrace(*traceFile)
		if err != nil {
			fatal(err)
		}
		t, name = tt, *traceFile
	} else {
		p, ok := workloads.ByAbbr(*app)
		if !ok {
			fatal(fmt.Errorf("unknown app %q (have %v)", *app, workloads.Abbrs()))
		}
		t, name = p.Generate(*n), p.Abbr
	}

	fmt.Printf("trace: %s (%d records)\n", name, len(t))
	run := func(kind string) {
		switch kind {
		case "stats":
			fmt.Print(trace.Analyze(t))
		case "overlap":
			fmt.Printf("footprint overlap rate (Fig. 4 method): %.1f%%\n", 100*analysis.OverlapRate(t))
		case "neighbors":
			dists := []uint64{4, 8, 16, 32, 64}
			props := analysis.NeighborProportion(t, dists, *diff)
			fmt.Printf("learnable neighbours (diff <= %d bits):\n", *diff)
			for i, d := range dists {
				fmt.Printf("  distance <= %-3d  %5.1f%%\n", d, 100*props[i])
			}
		case "snapshot":
			hot := analysis.HottestPages(t, 1)
			if len(hot) == 0 {
				fmt.Println("empty trace")
				return
			}
			pts := analysis.PageTimeline(t, hot[0])
			fmt.Printf("footprint snapshot of hottest page %#x (%d accesses):\n", uint64(hot[0]), len(pts))
			limit := pts
			if len(limit) > 80 {
				limit = limit[:80]
			}
			for _, pt := range limit {
				fmt.Printf("  cycle %10d  block %2d |%s*\n", pt.Cycle, pt.Offset, strings.Repeat(" ", pt.Offset))
			}
			if len(pts) > 80 {
				fmt.Printf("  ... (%d more)\n", len(pts)-80)
			}
		default:
			fatal(fmt.Errorf("unknown analysis %q", kind))
		}
	}
	if *what == "all" {
		for _, k := range []string{"stats", "overlap", "neighbors", "snapshot"} {
			run(k)
		}
		return
	}
	run(*what)
}

// readTrace loads a binary trace file through trace.Open, which rejects a
// file whose size is not a header plus whole records, or whose header is
// not a trace header, before any record is read.
func readTrace(path string) (trace.Trace, error) {
	f, err := trace.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := f.Stream()
	if err != nil {
		return nil, err
	}
	t := make(trace.Trace, f.Len())
	t = t[:trace.ReadChunk(s, t)]
	return t, s.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "trace-analyze:", err)
	os.Exit(1)
}
