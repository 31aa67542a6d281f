// Command tracegen synthesises memory-bus traces for the Table 2 catalog
// applications and writes them in the binary or text trace encoding.
//
// Usage:
//
//	tracegen -app Fort -n 1000000 -o fort.bin
//	tracegen -app CFM -n 5000 -text -o -        # text to stdout
//	tracegen -list                              # show the catalog
//	tracegen -app HoK -n 200000 -stats          # summary only
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "CFM", "catalog application abbreviation")
	n := flag.Int("n", 1_000_000, "number of requests")
	out := flag.String("o", "-", "output file ('-' for stdout)")
	text := flag.Bool("text", false, "write the text encoding instead of binary")
	stats := flag.Bool("stats", false, "print trace statistics instead of the trace")
	list := flag.Bool("list", false, "list the workload catalog and exit")
	seed := flag.Int64("seed", 0, "override the profile seed (0 keeps the default)")
	profileFile := flag.String("profile", "", "JSON profile file (overrides -app)")
	dumpProfile := flag.Bool("dump-profile", false, "print the selected profile as JSON and exit")
	flag.Parse()
	if *n < 0 {
		fatal(fmt.Errorf("-n %d: the request count cannot be negative", *n))
	}

	if *list {
		for _, p := range workloads.Catalog() {
			fmt.Printf("%-5s %-20s %s\n", p.Abbr, p.Name, p.Description)
		}
		return
	}

	var p workloads.Profile
	if *profileFile != "" {
		f, err := os.Open(*profileFile)
		if err != nil {
			fatal(err)
		}
		pp, err := workloads.ReadProfile(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		p = pp
	} else {
		pp, ok := workloads.ByAbbr(*app)
		if !ok {
			fatal(fmt.Errorf("unknown app %q (have %v)", *app, workloads.Abbrs()))
		}
		p = pp
	}
	if *seed != 0 {
		p.Seed = *seed
	}
	if *dumpProfile {
		if err := workloads.WriteProfile(os.Stdout, p); err != nil {
			fatal(err)
		}
		return
	}
	t := p.Generate(*n)

	if *stats {
		fmt.Printf("%s (%s), %d requests\n%s", p.Name, p.Abbr, *n, trace.Analyze(t))
		return
	}

	write := func(w io.Writer) error { return trace.WriteAll(w, t) }
	if *text {
		write = func(w io.Writer) error { return trace.WriteText(w, t) }
	}
	// A file output is renamed into place only once complete, so a failed
	// or killed tracegen never leaves a torn trace, and a replay already
	// reading the old file keeps reading it.
	var err error
	if *out == "-" {
		err = write(os.Stdout)
	} else {
		err = obs.WriteAtomic(*out, write)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
