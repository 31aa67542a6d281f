package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/sweepfarm"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	tracedPrefix = 2_000_000 // records of a trace workload's input the traced run replays
	sweepSegment = 500_000   // records per prefetcher in the sweep's traced run
	tracedReps   = 3         // repetitions behind every traced host time
	newRuns      = 21        // engine constructions behind sim.new_ms
	writeRuns    = 21        // artifact writes behind obs.write_ms_p50 (trace workloads)
	farmRepeats  = 10        // jobs of a trace workload's in-process farm grid
)

// segment is one engine run of the traced suite: a record source and the
// prefetcher that consumes it. Trace workloads have one segment, a prefix of
// their trace file; the sweep has one per prefetcher of its grid, fed by
// the first app's generator as its jobs are.
type segment struct {
	name string
	pf   string
	n    int
	open func() (trace.Stream, func() error, error)
}

func segments(w workload, in *input) []segment {
	if w.sweep {
		p := in.profile
		var segs []segment
		for _, pf := range sweepPFs {
			segs = append(segs, segment{name: w.app + "/" + pf, pf: pf, n: sweepSegment,
				open: func() (trace.Stream, func() error, error) {
					return p.Stream(sweepSegment), func() error { return nil }, nil
				}})
		}
		return segs
	}
	n := tracedPrefix
	if w.records < n {
		n = w.records
	}
	open := func() (trace.Stream, func() error, error) {
		if w.mmap {
			mt, err := trace.OpenMapped(in.trace)
			if err != nil {
				return nil, nil, err
			}
			st, err := mt.Stream()
			if err != nil {
				mt.Close()
				return nil, nil, err
			}
			return &prefix{s: st, left: n}, mt.Close, nil
		}
		f, err := os.Open(in.trace)
		if err != nil {
			return nil, nil, err
		}
		return &prefix{s: trace.NewReader(f).Stream(), left: n}, f.Close, nil
	}
	return []segment{{name: w.name, pf: w.pf, n: n, open: open}}
}

// prefix limits a stream to its first left records.
type prefix struct {
	s    trace.Stream
	left int
}

func (p *prefix) Next() (trace.Record, bool) {
	if p.left <= 0 {
		return trace.Record{}, false
	}
	p.left--
	return p.s.Next()
}

func (p *prefix) NextChunk(dst []trace.Record) int {
	if len(dst) > p.left {
		dst = dst[:p.left]
	}
	n := trace.ReadChunk(p.s, dst)
	p.left -= n
	return n
}

func (p *prefix) Err() error { return p.s.Err() }
func (p *prefix) Len() int   { return p.left }

// engineConfig is the CLIs' engine configuration for pf: the paper's
// system, one unit per channel.
func engineConfig(pf string, parallel bool) (sim.Config, error) {
	f, err := sim.NamedPrefetcher(pf)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.DefaultConfig()
	cfg.NewPrefetcher = f
	cfg.SubShards = 1
	cfg.ParallelChannels = parallel
	return cfg, nil
}

// wrapped returns cfg with every channel's prefetcher wrapped in a timer,
// and the list the wrappers are appended to as the engine builds them.
func wrapped(cfg sim.Config, capture bool) (sim.Config, *[]*timed) {
	inner := cfg.NewPrefetcher
	var ws []*timed
	cfg.NewPrefetcher = func(ch int) prefetch.Prefetcher {
		t := newTimed(inner(ch), capture)
		ws = append(ws, t)
		return t
	}
	return cfg, &ws
}

// span is one timed interval of the traced run. Calls holds per-call child
// time summed inside the span (prefetcher calls are too many for a span
// each).
type span struct {
	Name   string           `json:"name"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"` // 0 for a root span
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Calls  map[string]int64 `json:"call_ns,omitempty"`
}

// tracer keeps spans in memory; they are written out once the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = int64(time.Since(t.epoch)) }

// selfTimes sums the self time of spans[lo:hi] by name: a span's duration
// minus its child spans and its summed per-call children, which are
// credited to their own names.
func selfTimes(spans []span, lo, hi int) map[string]int64 {
	self := map[string]int64{}
	for _, sp := range spans[lo:hi] {
		d := sp.End - sp.Start
		self[sp.Name] += d
		if sp.Parent > 0 {
			self[spans[sp.Parent-1].Name] -= d
		}
		for name, ns := range sp.Calls {
			self[name] += ns
			self[sp.Name] -= ns
		}
	}
	return self
}

// passCost is one repetition's host cost of the traced suite.
type passCost struct {
	open, decode, step, train, issue, traced time.Duration
	serial, parallel                         time.Duration
	allocBytes, gcCycles                     uint64
	gcPause                                  time.Duration
}

// suite is one workload's traced run.
type suite struct {
	s       *session
	w       workload
	segs    []segment
	records int
	tr      tracer
	digests map[string]string // per segment: the untraced serial digest
	bad     []string          // transparency violations
}

// tracedRun times every layer in process and returns each per-layer metric.
// r.last must hold a checked full-size invocation's outputs, and cliWall is
// the wall time that invocation stands for. The spans are written to
// spansPath. A traced or captured report that differs from the untraced one
// counts as a failed attempt.
func (s *session) tracedRun(r *wrun, cliWall float64, spansPath string) (map[string]float64, error) {
	su := &suite{s: s, w: r.w, segs: segments(r.w, r.in), tr: tracer{epoch: time.Now()},
		digests: map[string]string{}}
	for _, seg := range su.segs {
		su.records += seg.n
	}
	s.logf("%s: traced run over %d records", r.w.name, su.records)
	var reps [tracedReps]passCost
	for i := range reps {
		if err := su.untraced(&reps[i]); err != nil {
			return nil, err
		}
		if err := su.traced(&reps[i]); err != nil {
			return nil, err
		}
	}
	cp, err := su.capture()
	if err != nil {
		return nil, err
	}
	vals := su.hostTimes(reps[:])
	if err := su.replays(cp, vals); err != nil {
		return nil, err
	}
	for k, v := range reportMetrics(r.last.report) {
		vals[k] = v
	}
	su.attribute(vals, cp)
	if err := su.generatorAndSetup(r.in.profile, cp, vals); err != nil {
		return nil, err
	}
	if err := su.farm(cliWall, vals); err != nil {
		return nil, err
	}

	r.attempted++
	if len(su.bad) > 0 {
		r.failed++
		for _, b := range su.bad {
			s.logf("%s: %s", r.w.name, b)
		}
	}
	return vals, su.writeSpans(spansPath)
}

// untraced runs every segment through the untraced engine, serial then
// parallel, and checks the two reports agree.
func (su *suite) untraced(c *passCost) error {
	for _, seg := range su.segs {
		for _, parallel := range []bool{false, true} {
			cfg, err := engineConfig(seg.pf, parallel)
			if err != nil {
				return err
			}
			src, closeSrc, err := seg.open()
			if err != nil {
				return err
			}
			eng := sim.New(cfg)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			rep, err := eng.RunStream(src, seg.name)
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			closeSrc()
			if err != nil {
				return fmt.Errorf("%s: %w", seg.name, err)
			}
			if !parallel {
				c.serial += d
				if err := su.expect(seg, "serial", rep); err != nil {
					return err
				}
				continue
			}
			c.parallel += d
			c.allocBytes += after.TotalAlloc - before.TotalAlloc
			c.gcCycles += uint64(after.NumGC - before.NumGC)
			c.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
			if err := su.expect(seg, "parallel", rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// expect compares rep with the segment's untraced serial report, recording
// the first serial digest it sees as the reference.
func (su *suite) expect(seg segment, what string, rep metrics.Report) error {
	d, err := reportDigest(rep)
	if err != nil {
		return err
	}
	if ref, ok := su.digests[seg.name]; !ok {
		su.digests[seg.name] = d
	} else if d != ref {
		su.bad = append(su.bad, fmt.Sprintf("%s: %s report digest %.12s differs from the untraced serial %.12s",
			seg.name, what, d, ref))
	}
	return nil
}

// traced runs every segment through the serial Step loop with the
// prefetchers wrapped, one span per chunk with decode and step children.
func (su *suite) traced(c *passCost) error {
	tr := &su.tr
	lo := len(tr.spans)
	run := tr.begin("run", 0)
	for _, seg := range su.segs {
		if err := su.tracedSegment(seg, run); err != nil {
			return err
		}
	}
	tr.end(run)
	self := selfTimes(tr.spans, lo, len(tr.spans))
	ns := func(name string) time.Duration { return time.Duration(self[name]) }
	c.open = ns("trace.open")
	c.decode = ns("trace.decode")
	c.train = ns("prefetch.train")
	c.issue = ns("prefetch.issue")
	c.step = ns("sim.step") + c.train + c.issue
	c.traced = ns("chunk") + c.decode + c.step + ns("sim.finish")
	return nil
}

func (su *suite) tracedSegment(seg segment, parent int) error {
	tr := &su.tr
	cfg, err := engineConfig(seg.pf, false)
	if err != nil {
		return err
	}
	cfg, ws := wrapped(cfg, false)
	o := tr.begin("trace.open", parent)
	src, closeSrc, err := seg.open()
	tr.end(o)
	if err != nil {
		return err
	}
	defer closeSrc()
	eng := sim.New(cfg)
	buf := make([]trace.Record, trace.ChunkSize)
	for {
		c := tr.begin("chunk", parent)
		d := tr.begin("trace.decode", c)
		n := trace.ReadChunk(src, buf)
		tr.end(d)
		if n == 0 {
			tr.end(c)
			break
		}
		st := tr.begin("sim.step", c)
		train0, issue0 := callNs(*ws)
		for _, rec := range buf[:n] {
			if err := eng.Step(rec); err != nil {
				return fmt.Errorf("%s: %w", seg.name, err)
			}
		}
		tr.end(st)
		train1, issue1 := callNs(*ws)
		tr.spans[st-1].Calls = map[string]int64{"prefetch.train": train1 - train0, "prefetch.issue": issue1 - issue0}
		tr.end(c)
	}
	if err := src.Err(); err != nil {
		return err
	}
	f := tr.begin("sim.finish", parent)
	rep := eng.Finish(seg.name)
	tr.end(f)
	return su.expect(seg, "traced", rep)
}

// callNs sums the wrappers' estimated train and issue time.
func callNs(ws []*timed) (train, issue int64) {
	var t, i float64
	for _, w := range ws {
		t += w.train.total()
		i += w.issue.total()
	}
	return int64(t), int64(i)
}

// captured is what an untimed pass with capture hooks recorded: the access
// stream each channel's prefetcher trained on and the requests each DRAM
// controller serviced, one stream per segment × channel.
type captured struct {
	accesses [][]prefetch.Access
	requests [][]dramRequest
	report   metrics.Report // segment reports summed
	last     metrics.Report // the last segment's report as the engine built it

	cands, nonEmpty       int64 // candidates the wrapped prefetchers returned, and the calls returning any
	slpIssues, tlpIssues  uint64
	promotions, snapshots uint64
}

// dramRequest is the input half of a serviced dram.Request.
type dramRequest struct {
	block                       addr.BlockNum
	arrival                     uint64
	write, prefetch, writeAlloc bool
}

func (su *suite) capture() (*captured, error) {
	cp := &captured{}
	for _, seg := range su.segs {
		cfg, err := engineConfig(seg.pf, false)
		if err != nil {
			return nil, err
		}
		cfg, ws := wrapped(cfg, true)
		eng := sim.New(cfg)
		reqs := make([][]dramRequest, addr.Channels)
		for ch := range reqs {
			ch := ch
			eng.DRAM(ch).TraceFn = func(r *dram.Request) {
				reqs[ch] = append(reqs[ch], dramRequest{block: r.Block, arrival: r.Arrival,
					write: r.Write, prefetch: r.Prefetch, writeAlloc: r.WriteAlloc})
			}
		}
		src, closeSrc, err := seg.open()
		if err != nil {
			return nil, err
		}
		rep, err := eng.RunStream(src, seg.name)
		closeSrc()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", seg.name, err)
		}
		if err := su.expect(seg, "capture", rep); err != nil {
			return nil, err
		}
		addReport(&cp.report, rep)
		cp.last = rep
		for _, w := range *ws {
			cp.accesses = append(cp.accesses, w.accesses)
			cp.cands += w.cands
			cp.nonEmpty += w.nonEmpty
		}
		for ch, rs := range reqs {
			// Controllers take requests in arrival order; TraceFn saw them
			// in service order.
			sort.SliceStable(rs, func(i, j int) bool { return rs[i].arrival < rs[j].arrival })
			cp.requests = append(cp.requests, rs)
			if p := planariaOf(eng.Channel(ch)); p != nil {
				s, t := p.IssueShare()
				pr, sn, _ := p.SLP().Counters()
				cp.slpIssues += s
				cp.tlpIssues += t
				cp.promotions += pr
				cp.snapshots += sn
			}
		}
	}
	return cp, nil
}

// hostTimes reduces the repetitions to per-record medians.
func (su *suite) hostTimes(reps []passCost) map[string]float64 {
	perRecord := func(f func(passCost) time.Duration) float64 {
		xs := make([]float64, len(reps))
		for i, c := range reps {
			xs[i] = float64(f(c)) / float64(su.records)
		}
		return median(xs)
	}
	med := func(f func(passCost) float64) float64 {
		xs := make([]float64, len(reps))
		for i, c := range reps {
			xs[i] = f(c)
		}
		return median(xs)
	}
	serial := perRecord(func(c passCost) time.Duration { return c.serial })
	parallel := perRecord(func(c passCost) time.Duration { return c.parallel })
	return map[string]float64{
		"trace.open_ms":              med(func(c passCost) float64 { return ms(c.open) / float64(len(su.segs)) }),
		"trace.decode_ns_per_record": perRecord(func(c passCost) time.Duration { return c.decode }),
		"sim.step_ns_per_record":     perRecord(func(c passCost) time.Duration { return c.step }),
		"sim.serial_ns_per_record":   serial,
		"sim.parallel_ns_per_record": parallel,
		"sim.parallel_speedup":       serial / parallel,
		"sim.trace_overhead_frac":    perRecord(func(c passCost) time.Duration { return c.traced })/serial - 1,
		"prefetch.step_frac": med(func(c passCost) float64 {
			return ratio(float64(c.train+c.issue), float64(c.step))
		}),
		// Every record trains and issues once per pass.
		"prefetch.train_ns_per_call":     perRecord(func(c passCost) time.Duration { return c.train }),
		"prefetch.issue_ns_per_call":     perRecord(func(c passCost) time.Duration { return c.issue }),
		"runtime.alloc_bytes_per_record": med(func(c passCost) float64 { return float64(c.allocBytes) / float64(su.records) }),
		"runtime.gc_cycles":              med(func(c passCost) float64 { return float64(c.gcCycles) }),
		"runtime.gc_pause_ms":            med(func(c passCost) float64 { return ms(c.gcPause) }),
	}
}

// trainIssuer is what a replay drives.
type trainIssuer interface {
	Train(prefetch.Access)
	IssueTo(prefetch.Access, []addr.BlockNum) []addr.BlockNum
}

// replay drives one fresh prefetcher per captured stream through Train and
// IssueTo, as the engine does, and returns the time spent.
func replay(streams [][]prefetch.Access, mk func() trainIssuer) time.Duration {
	pfs := make([]trainIssuer, len(streams))
	for i := range pfs {
		pfs[i] = mk()
	}
	var buf []addr.BlockNum
	start := time.Now()
	for i, st := range streams {
		p := pfs[i]
		for _, a := range st {
			p.Train(a)
			buf = p.IssueTo(a, buf[:0])
		}
	}
	return time.Since(start)
}

// replayCache drives one demand-only cache slice per captured stream:
// every access probes, every miss fills.
func replayCache(streams [][]prefetch.Access) time.Duration {
	caches := make([]*cache.Cache, len(streams))
	for i := range caches {
		cfg := sim.DefaultConfig().Cache
		cfg.Seed += int64(i % addr.Channels)
		caches[i] = cache.New(cfg)
	}
	start := time.Now()
	for i, st := range streams {
		c := caches[i]
		for _, a := range st {
			if hit, _, _ := c.AccessOrigin(a.Block, a.Write); !hit {
				c.Fill(a.Block, false, a.Write)
			}
		}
	}
	return time.Since(start)
}

// replayDRAM enqueues each captured request stream, in arrival order, into
// a fresh controller and returns the time spent and the controllers' stats
// summed.
func replayDRAM(streams [][]dramRequest) (time.Duration, dram.Stats, error) {
	ctrls := make([]*dram.Controller, len(streams))
	for i := range ctrls {
		ctrls[i] = dram.NewController(sim.DefaultConfig().DRAM)
	}
	start := time.Now()
	for i, st := range streams {
		c := ctrls[i]
		for _, q := range st {
			r := c.NewRequest()
			r.Block, r.Arrival = q.block, q.arrival
			r.Write, r.Prefetch, r.WriteAlloc = q.write, q.prefetch, q.writeAlloc
			if err := c.Enqueue(r); err != nil {
				return 0, dram.Stats{}, err
			}
		}
		c.Flush()
	}
	d := time.Since(start)
	var sum dram.Stats
	for _, c := range ctrls {
		st := c.Stats()
		sum.Reads += st.Reads
		sum.Writes += st.Writes
		sum.DemandReads += st.DemandReads
		sum.TotalDemandReadLat += st.TotalDemandReadLat
	}
	return d, sum, nil
}

// mirrorCost is one tournament-mirror replay's cost, summed over streams.
type mirrorCost struct {
	train, issue, peek []callTimer // per component, in tournamentComponents order
	outer              callTimer   // the tournaments' own IssueTo
	wins               []uint64
}

func replayMirror(streams [][]prefetch.Access) mirrorCost {
	var tours []*prefetch.Tournament
	var outers []*timed
	var comps [][]*timed
	replay(streams, func() trainIssuer {
		t, cs := newTournamentMirror()
		o := newTimed(t, false)
		tours, comps, outers = append(tours, t), append(comps, cs), append(outers, o)
		return o
	})
	k := len(tournamentComponents)
	m := mirrorCost{train: make([]callTimer, k), issue: make([]callTimer, k), peek: make([]callTimer, k),
		wins: make([]uint64, k)}
	for i, cs := range comps {
		m.outer.add(outers[i].issue)
		wins := tours[i].IssuesByComponent()
		for c, t := range cs {
			m.wins[c] += wins[t.Name()]
			m.train[c].add(t.train)
			m.issue[c].add(t.issue)
			m.peek[c].add(t.peek)
		}
	}
	return m
}

// replays times the layers replayed standalone on the captured streams:
// SLP and TLP, the tournament mirror, a demand-only cache, and DRAM.
func (su *suite) replays(cp *captured, vals map[string]float64) error {
	var accesses, requests int
	for _, st := range cp.accesses {
		accesses += len(st)
	}
	for _, st := range cp.requests {
		requests += len(st)
	}
	if want := int(cp.report.DRAM.Reads + cp.report.DRAM.Writes); requests != want {
		su.bad = append(su.bad, fmt.Sprintf("captured %d DRAM requests, the engine serviced %d", requests, want))
	}
	k := len(tournamentComponents)
	var slp, tlp, cch, drm, meta []float64
	train, issue, peek := make([][]float64, k), make([][]float64, k), make([][]float64, k)
	var rstats dram.Stats
	for i := 0; i < tracedReps; i++ {
		slp = append(slp, nsPer(replay(cp.accesses, func() trainIssuer { return core.NewSLP(core.DefaultSLPConfig()) }), accesses))
		tlp = append(tlp, nsPer(replay(cp.accesses, func() trainIssuer { return core.NewTLP(core.DefaultTLPConfig()) }), accesses))
		cch = append(cch, nsPer(replayCache(cp.accesses), accesses))
		d, st, err := replayDRAM(cp.requests)
		if err != nil {
			return err
		}
		drm, rstats = append(drm, nsPer(d, requests)), st

		m := replayMirror(cp.accesses)
		var inner float64
		for c := 0; c < k; c++ {
			train[c] = append(train[c], m.train[c].perCall())
			issue[c] = append(issue[c], m.issue[c].perCall())
			peek[c] = append(peek[c], m.peek[c].perCall())
			inner += m.issue[c].total() + m.peek[c].total()
		}
		meta = append(meta, ratio(m.outer.total()-inner, float64(m.outer.calls)))
		if i == 0 {
			var total uint64
			for _, w := range m.wins {
				total += w
			}
			for c, name := range tournamentComponents {
				vals["prefetch.tournament."+name+".win_frac"] = ratio(float64(m.wins[c]), float64(total))
			}
		}
	}
	vals["core.slp_ns_per_access"] = median(slp)
	vals["core.tlp_ns_per_access"] = median(tlp)
	vals["cache.replay_ns_per_access"] = median(cch)
	vals["dram.replay_ns_per_request"] = median(drm)
	vals["dram.replay_fidelity"] = ratio(rstats.AvgDemandReadLatency(), cp.report.DRAM.AvgDemandReadLatency())
	vals["prefetch.tournament.meta_ns_per_issue"] = median(meta)
	for c, name := range tournamentComponents {
		p := "prefetch.tournament." + name + "."
		vals[p+"train_ns_per_call"] = median(train[c])
		vals[p+"issue_ns_per_call"] = median(issue[c])
		vals[p+"peek_ns_per_call"] = median(peek[c])
	}
	return nil
}

// attribute adds the composite's counters and the share of the traced step
// the attributed layers leave unexplained.
func (su *suite) attribute(vals map[string]float64, cp *captured) {
	vals["core.slp_issue_frac"] = ratio(float64(cp.slpIssues), float64(cp.slpIssues+cp.tlpIssues))
	vals["core.slp_promotions"] = float64(cp.promotions)
	vals["core.slp_snapshots"] = float64(cp.snapshots)
	vals["core.tlp_issues"] = float64(cp.tlpIssues)
	vals["prefetch.candidates_per_issue"] = ratio(float64(cp.cands), float64(cp.nonEmpty))

	// Every record is one demand access; DRAM requests per record come
	// from the captured pass.
	var requests int
	for _, st := range cp.requests {
		requests += len(st)
	}
	step := vals["sim.step_ns_per_record"]
	attributed := vals["prefetch.train_ns_per_call"] + vals["prefetch.issue_ns_per_call"] +
		vals["cache.replay_ns_per_access"] +
		vals["dram.replay_ns_per_request"]*float64(requests)/float64(su.records)
	vals["sim.residual_ns_per_record"] = step - attributed
	vals["sim.residual_frac"] = ratio(step-attributed, step)
}

// generatorAndSetup times the generator, engine construction and artifact
// writes.
func (su *suite) generatorAndSetup(p workloads.Profile, cp *captured, vals map[string]float64) error {
	var gen []float64
	buf := make([]trace.Record, trace.ChunkSize)
	for i := 0; i < tracedReps; i++ {
		st := p.Stream(su.records)
		start := time.Now()
		for trace.ReadChunk(st, buf) > 0 {
		}
		gen = append(gen, nsPer(time.Since(start), su.records))
	}
	vals["workloads.gen_ns_per_record"] = median(gen)

	var news []float64
	for i := 0; i < newRuns; i++ {
		var d time.Duration
		for _, seg := range su.segs {
			cfg, err := engineConfig(seg.pf, true)
			if err != nil {
				return err
			}
			start := time.Now()
			sim.New(cfg)
			d += time.Since(start)
		}
		news = append(news, ms(d)/float64(len(su.segs)))
	}
	vals["sim.new_ms"] = median(news)

	if su.w.sweep {
		return nil // the sweep's writes are timed inside its farm run
	}
	path := filepath.Join(su.s.work, su.w.name+"-artifact.json")
	art := obs.Artifact{Manifest: benchManifest(), Report: &cp.last}
	var writes []float64
	for i := 0; i < writeRuns; i++ {
		start := time.Now()
		if err := obs.WriteFile(path, art); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(start)))
	}
	vals["obs.write_ms_p50"] = median(writes)
	return os.Remove(path)
}

// benchManifest is an artifact manifest without the git subprocess
// obs.NewManifest spawns.
func benchManifest() obs.Manifest {
	return obs.Manifest{SchemaVersion: obs.SchemaVersion, Tool: "bench", GoVersion: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, StartTime: time.Now().UTC()}
}

// farm runs a grid on an in-process sweepfarm.Runner with one worker and
// times its jobs through JobDone. The sweep runs its own grid; a trace
// workload runs farmRepeats jobs of its catalog app and prefetcher.
func (su *suite) farm(cliWall float64, vals map[string]float64) error {
	grid := sweepGrid()
	if !su.w.sweep {
		grid = sweepfarm.Grid{Apps: []string{su.w.app}, Prefetchers: []string{su.w.pf}, Repeats: farmRepeats}
	}
	dir, err := os.MkdirTemp(su.s.work, "farm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var jobs, writes []float64
	var werr error
	art := obs.Artifact{Manifest: benchManifest()}
	// Workers is 1, so JobDone runs on one goroutine, and Run returns only
	// after that goroutine has finished.
	last := time.Now()
	runner := &sweepfarm.Runner{
		Grid:        grid,
		Base:        sweepfarm.Config{Requests: sweepRequests, Warmup: sweepWarmup, SubShards: 1},
		ArtifactDir: filepath.Join(dir, "cells"),
		Workers:     1,
		JobDone: func(_ sweepfarm.Job, rep metrics.Report) {
			jobs = append(jobs, ms(time.Since(last)))
			art.Report = &rep
			start := time.Now()
			if err := obs.WriteFile(filepath.Join(dir, "report.json"), art); err != nil && werr == nil {
				werr = err
			}
			writes = append(writes, ms(time.Since(start)))
			last = time.Now()
		},
	}
	start := time.Now()
	res, err := runner.Run(su.s.ctx)
	wall := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if res.Executed != len(jobs) || len(jobs) == 0 {
		return fmt.Errorf("farm ran %d jobs, JobDone saw %d", res.Executed, len(jobs))
	}
	var total float64
	for _, j := range jobs {
		total += j / 1000
	}
	for _, w := range writes {
		wall -= w / 1000
	}
	vals["sweepfarm.job_ms_p50"] = median(jobs)
	vals["sweepfarm.job_ms_p80"] = quantile(jobs, 0.8)
	if su.w.sweep {
		// The CLI's pool has one worker per CPU; the jobs ran on one.
		vals["sweepfarm.pool_efficiency"] = total / (cliWall * float64(su.s.nproc))
		vals["obs.write_ms_p50"] = median(writes)
	} else {
		vals["sweepfarm.pool_efficiency"] = total / wall
	}
	return nil
}

// writeSpans writes the traced run's spans as JSON.
func (su *suite) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload       string `json:"workload"`
		RecordsPerPass int    `json:"records_per_pass"`
		Spans          []span `json:"spans"`
	}{su.w.name, su.records, su.tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// nsPer is d in nanoseconds per item.
func nsPer(d time.Duration, n int) float64 { return ratio(float64(d), float64(n)) }
