package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	setupRuns   = 21 // 1-record invocations behind one setup_s value
	setupBatch  = 3  // set-up invocations made before each timed one
	minTimed    = 3  // timed invocations a single-workload run makes at least
	fullRepeats = 7  // timed invocations per workload in full mode
)

// wrun accumulates one workload's invocations within a benchmark run.
type wrun struct {
	w         workload
	in        *input
	attempted int
	failed    int
	digest    string  // digest of the first successful full-size invocation
	last      outcome // outputs of the latest successful full-size invocation
	lastWall  float64
	samples   map[string][]float64 // end-to-end samples by metric name
	setups    int                  // set-up invocations made
}

func newWrun(w workload, in *input) *wrun {
	return &wrun{w: w, in: in, samples: map[string][]float64{}}
}

// invoke runs the workload's command once into a fresh output directory and
// checks what it wrote. An invocation fails on a non-zero exit, an
// incomplete report, a record count other than requested, or a full-size
// report digest that differs from the run's first one.
func (s *session) invoke(r *wrun, small bool) (sample, outcome, bool) {
	r.attempted++
	sm, o, err := s.invokeOnce(r, small)
	if err == nil && !small {
		if r.digest == "" {
			r.digest = o.digest
		} else if o.digest != r.digest {
			err = fmt.Errorf("report digest %.12s differs from the first run's %.12s", o.digest, r.digest)
		}
	}
	if err != nil {
		r.failed++
		s.logf("%s: invocation failed: %v", r.w.name, err)
		return sample{}, outcome{}, false
	}
	if !small {
		r.last, r.lastWall = o, sm.wall
	}
	return sm, o, true
}

func (s *session) invokeOnce(r *wrun, small bool) (sample, outcome, error) {
	out, err := os.MkdirTemp(r.in.dir, "out-")
	if err != nil {
		return sample{}, outcome{}, err
	}
	defer os.RemoveAll(out)
	prog, args := s.command(r.w, r.in, small, out)
	sm, err := s.run(prog, args...)
	if err != nil {
		return sample{}, outcome{}, err
	}
	o, err := r.w.check(small, out)
	return sm, o, err
}

// timed makes one measured full-size invocation and records its samples.
func (s *session) timed(r *wrun) {
	sm, o, ok := s.invoke(r, false)
	if !ok {
		return
	}
	r.samples["wall_s"] = append(r.samples["wall_s"], sm.wall)
	r.samples["records_per_s"] = append(r.samples["records_per_s"], float64(r.w.records)/sm.wall)
	r.samples["cpu_s"] = append(r.samples["cpu_s"], sm.cpu)
	r.samples["peak_rss_mb"] = append(r.samples["peak_rss_mb"], sm.rssMiB)
	r.samples["amat_cycles"] = append(r.samples["amat_cycles"], o.amat)
}

// setup times the command on a 1-record input up to n more times, stopping
// at setupRuns: exec, input open, engine construction and the report or
// artifact writes, without the simulation itself. The set-up runs are
// spread over the timed loop in batches, so a burst of interference from
// other tenants of the host cannot cover all of them.
func (s *session) setup(r *wrun, n int) {
	for ; n > 0 && r.setups < setupRuns && s.ctx.Err() == nil; n-- {
		r.setups++
		if sm, _, ok := s.invoke(r, true); ok {
			r.samples["setup_s"] = append(r.samples["setup_s"], sm.wall)
		}
	}
}

// prepareRun generates a workload's inputs under the session's scratch
// directory.
func (s *session) prepareRun(w workload, seed int64) (*wrun, error) {
	start := time.Now()
	in, err := s.prepare(w, seed, filepath.Join(s.work, w.name))
	if err != nil {
		return nil, err
	}
	s.logf("%s: inputs ready in %.1fs", w.name, time.Since(start).Seconds())
	return newWrun(w, in), nil
}

// driveEndToEnd is single-workload mode with tracing off: one untimed warm-up, then
// timed invocations, each after a batch of set-up runs, until the next
// batch and invocation would end after seconds (at least minTimed of them).
func (s *session) driveEndToEnd(w workload, seed int64, seconds float64) (*wrun, error) {
	r, err := s.prepareRun(w, seed)
	if err != nil {
		return nil, err
	}
	s.invoke(r, false)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var last time.Duration
	for n := 0; s.ctx.Err() == nil && (n < minTimed || time.Now().Add(last).Before(deadline)); n++ {
		start := time.Now()
		s.setup(r, setupBatch)
		s.timed(r)
		last = time.Since(start)
	}
	s.setup(r, setupRuns)
	return r, s.ctx.Err()
}

// endToEndValues reduces a run's samples to one median per metric; it fails
// when a metric has no sample because every invocation behind it failed.
func endToEndValues(r *wrun) (map[string]float64, error) {
	vals := map[string]float64{}
	for _, m := range endToEnd {
		xs := r.samples[m.Name]
		if len(xs) == 0 {
			return nil, fmt.Errorf("%s: no successful invocation measured %s", r.w.name, m.Name)
		}
		vals[m.Name] = median(xs)
	}
	return vals, nil
}
