package sim

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/events"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/prefetch"
	"repro/internal/prefetch/bop"
	"repro/internal/prefetch/spp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// prefetchQueueCap is the depth of each unit's prefetch queue (Figure 1:
// "the generated prefetch requests are inserted into the prefetch queue").
// The engine sends a trigger's prefetches to DRAM within that trigger, so
// the depth bounds only how many one trigger may issue; it binds when
// Config.MaxPerTrigger exceeds it.
const prefetchQueueCap = 64

// Config parameterises one simulation run.
type Config struct {
	Cache        cache.Config // per-channel SC slice
	DRAM         dram.Config
	SCHitLatency uint64 // cycles for an SC hit (tag + data)

	// NewPrefetcher builds the per-channel prefetcher. The engine calls
	// it once per channel.
	NewPrefetcher func(channel int) prefetch.Prefetcher

	// MaxPerTrigger clamps the number of prefetches accepted per demand
	// trigger (hardware prefetch queue insert bandwidth); the 64-entry
	// prefetch queue caps it.
	MaxPerTrigger int
	// PrefetchLatency is the delay before a prefetched block becomes
	// usable in the SC (queue + DRAM service). A demand arriving earlier
	// sees a "late prefetch": it waits out the remaining time instead of
	// paying a full miss. This is the timeliness model — without it,
	// shallow delta prefetchers would enjoy zero-lead-time coverage they
	// cannot have in hardware.
	PrefetchLatency uint64

	// ParallelChannels chooses where Run steps each channel's batches of
	// records. The paper's system is four independent SC slices — each
	// trace record touches exactly one channel's cache, prefetcher, queue
	// and controller — so Run's splitter groups the stream by channel and
	// steps a channel's records one batch at a time. Set, each channel's
	// batches run on its own worker goroutine; DefaultConfig sets it, and
	// planaria-sim runs that way. Clear, every batch runs inline on the
	// calling goroutine: the sweep farm clears it while its job queue alone
	// keeps every core busy, so a job adds no goroutines and holds one batch
	// per channel. Reports, sampler windows and error attribution are
	// bit-identical either way, and to a Step loop (docs/PERFORMANCE.md).
	// Step always runs on the calling goroutine.
	ParallelChannels bool

	// Deprecated: the engine runs one execution unit per channel.
	// SubShards must be 0 or 1, and New panics on a larger value.
	SubShards int

	// SampleEvery closes a metrics time-series window every N trace
	// records; SampleEveryCycles closes one whenever the trace clock has
	// advanced by at least N cycles since the last window boundary.
	// Either cadence (or both) may be set; when both are zero, sampling
	// is disabled entirely and the engine's hot path pays only a nil
	// check per step. See metrics.Sampler and docs/OBSERVABILITY.md.
	SampleEvery       uint64
	SampleEveryCycles uint64

	// Events enables decision-level event tracing: the engine builds one
	// events.ChannelSink per channel, installs it on prefetchers that
	// implement SetEventSink(events.Sink), and emits the prefetch
	// lifecycle (demand, issue, fill, used, late-hit, evicted-unused)
	// itself. Nil disables tracing entirely — the hot path then pays one
	// nil check per emission site and zero allocations. Event emission
	// never mutates simulation state, so reports are bit-identical with
	// tracing on or off. See docs/TRACING.md.
	Events *events.Config

	// Telemetry, when non-nil, enables live production metrics: the
	// engine registers each unit's instruments on the registry under its
	// channel label (demand mix, prefetch timeliness, DRAM
	// latency/queue/row-buffer, tournament component wins and scores) and
	// the run-progress series (telemetry.RunProgress). Four log₂ histograms
	// record on the hot paths; the counters and gauges are published from
	// the units' own counts after each batch Run steps, in ResetStats and
	// in Finish (only the last two for a Step-driven engine). The registry
	// is scrape-safe mid-run — it backs the -debug-addr /metrics and
	// /progress handlers — and its Summary lands in the report
	// (Report.Telemetry). Instruments cover the whole run including warmup
	// and are never reset (Prometheus counter semantics); the report
	// aggregates remain measured-region-only. Nil disables everything: the
	// hot path then pays one nil check per site, zero allocations, and the
	// report is bit-identical to a run without telemetry (the events.Sink
	// pattern).
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the paper's system: 4 × 1 MB 16-way SC slices,
// Table 1 LPDDR4 timing, 30-cycle SC hit latency, parallel per-channel
// execution.
func DefaultConfig() Config {
	return Config{
		Cache:            cache.DefaultConfig(),
		DRAM:             dram.DefaultConfig(),
		SCHitLatency:     30,
		NewPrefetcher:    func(int) prefetch.Prefetcher { return prefetch.None{} },
		MaxPerTrigger:    16,
		PrefetchLatency:  110,
		ParallelChannels: true,
	}
}

// prefetchers is the registry behind NamedPrefetcher and PrefetcherNames.
var prefetchers = []struct {
	name    string
	factory func(int) prefetch.Prefetcher
}{
	{"none", func(int) prefetch.Prefetcher { return prefetch.None{} }},
	{"nextline", func(int) prefetch.Prefetcher { return prefetch.NewNextLine(2) }},
	{"stride", func(int) prefetch.Prefetcher { return prefetch.NewStride(256, 2) }},
	{"markov", func(int) prefetch.Prefetcher { return prefetch.NewMarkov(prefetch.DefaultMarkovConfig()) }},
	{"accel", func(int) prefetch.Prefetcher { return prefetch.NewAccel(prefetch.DefaultAccelConfig()) }},
	{"bop", func(int) prefetch.Prefetcher { return bop.New(bop.DefaultConfig()) }},
	{"spp", func(int) prefetch.Prefetcher { return spp.New(spp.DefaultConfig()) }},
	{"spp-ghr", func(int) prefetch.Prefetcher { return spp.NewGHR(spp.DefaultConfig()) }},
	{"planaria", func(int) prefetch.Prefetcher { return core.New(core.DefaultConfig()) }},
	{"planaria-slp", planariaVariant(func(c *core.Config) { c.DisableTLP = true })},
	{"planaria-tlp", planariaVariant(func(c *core.Config) { c.DisableSLP = true })},
	{"planaria-serial", planariaVariant(func(c *core.Config) { c.Mode = core.Serial })},
	{"planaria-parallel", planariaVariant(func(c *core.Config) { c.Mode = core.Parallel })},
	{"planaria-tournament", TournamentPrefetcher()},
}

// planariaVariant returns a factory for the Planaria composite built from
// core.DefaultConfig as edited by set.
func planariaVariant(set func(*core.Config)) func(int) prefetch.Prefetcher {
	return func(int) prefetch.Prefetcher {
		cfg := core.DefaultConfig()
		set(&cfg)
		return core.New(cfg)
	}
}

// NamedPrefetcher returns the prefetcher factory registered under name; see
// PrefetcherNames for the names.
func NamedPrefetcher(name string) (func(int) prefetch.Prefetcher, error) {
	for _, p := range prefetchers {
		if p.name == name {
			return p.factory, nil
		}
	}
	return nil, fmt.Errorf("sim: unknown prefetcher %q", name)
}

// TournamentPrefetcher returns the factory behind "planaria-tournament":
// per channel, a prefetch.Tournament over TournamentComponents under the
// set-dueling meta-predictor.
func TournamentPrefetcher() func(int) prefetch.Prefetcher {
	return func(int) prefetch.Prefetcher {
		return prefetch.NewTournament(
			prefetch.TournamentConfig{Name: "planaria-tournament"}, TournamentComponents()...)
	}
}

// TournamentComponents builds one channel's planaria-tournament components
// in priority order: the Planaria composite (component 0, the priority
// fallback — so the paper's SLP-priority rule survives as the default),
// then the three PC-free delta-family components (stride, Markov-2,
// accel). See docs/PREFETCHERS.md for the component algorithms and storage
// budgets.
func TournamentComponents() []prefetch.Component {
	return []prefetch.Component{
		core.New(core.DefaultConfig()),
		prefetch.NewStride(256, 2),
		prefetch.NewMarkov(prefetch.DefaultMarkovConfig()),
		prefetch.NewAccel(prefetch.DefaultAccelConfig()),
	}
}

// PrefetcherNames lists the names accepted by NamedPrefetcher, in registry
// order (the order the CLI help prints).
func PrefetcherNames() []string {
	names := make([]string, len(prefetchers))
	for i, p := range prefetchers {
		names[i] = p.name
	}
	return names
}

// channelState is the complete state of one execution unit — a channel's
// memory-system slice. Units share nothing (the config pointer is
// read-only), which is what makes the sharded parallel mode safe: each
// instance is driven by exactly one goroutine at a time.
type channelState struct {
	cfg   *Config
	cache *cache.Cache
	dram  *dram.Controller
	pf    prefetch.Prefetcher

	// tracker is pf's origin interface, resolved once at construction so
	// the hot path pays no type assertion. A trigger's origin is
	// events.OriginFromName of the name it reports, so the report, the
	// attribution table and the Chrome trace share one origin namespace.
	tracker originTracker

	// issuer is pf's buffered-issue interface (nil when pf only implements
	// Issue), and cands the persistent candidate buffer threaded through
	// it — the issuing phase of every built-in prefetcher runs without a
	// single allocation this way.
	issuer prefetch.BufferedIssuer
	cands  []addr.BlockNum

	// kept holds the candidates one trigger issues (the prefetch queue,
	// allocated once at its full depth), and pstats counts this unit's
	// candidates by outcome.
	kept   []addr.BlockNum
	pstats prefetch.Stats

	// In-flight prefetches, FIFO by readiness (constant latency).
	pending pendingRing

	// Useful-prefetch and late-hit counts by the issuing trigger's origin.
	// The origin rides in the pending fill and in the cache line's origin
	// byte (cache.FillOrigin), so there is no per-block side map.
	usefulOrigin [events.NumOrigins]uint64
	lateOrigin   [events.NumOrigins]uint64

	// ev is this channel's event sink; nil when tracing is disabled.
	ev *events.ChannelSink

	// tel holds this unit's telemetry instruments; nil when telemetry is
	// disabled (Config.Telemetry), in which case every recording site
	// below reduces to one pointer check.
	tel *unitTelemetry

	metaEvents uint64 // prefetcher table touches for the power model
	scEvents   uint64 // SC lookups + fills

	readLatency  uint64 // demand-read latency spent in the SC: hits and late-prefetch waits
	lateHits     uint64 // demand reads served by an in-flight prefetch
	demandReads  uint64
	demandWrites uint64
	lastCycle    uint64

	statsFrom uint64 // cycle of the last ResetStats (wall-clock baseline)

	// Each unit is its own allocation, and units sit side by side in one
	// size-class span. The pad keeps the counters above, which this unit's
	// worker writes on every record, off the cache line holding the next
	// unit's first fields, which that unit's worker reads on every record
	// (docs/PERFORMANCE.md, "Unit layout: the 64-byte pad").
	_ [64]byte
}

// originTracker is implemented by composite prefetchers (Planaria) that can
// say which sub-prefetcher answered the most recent Issue call.
type originTracker interface {
	Origin() string
}

// eventSinkSetter is implemented by prefetchers that emit decision events
// (Planaria and its sub-prefetchers). Discovered by type assertion, like
// originTracker, so prefetch.Prefetcher and the baselines stay untouched.
type eventSinkSetter interface {
	SetEventSink(events.Sink)
}

// unitCounters are the counter families a unit publishes, in counts order.
// The metric taxonomy lives in docs/OBSERVABILITY.md; names are stable
// scrape API.
var unitCounters = [...]struct{ name, help string }{
	{"planaria_demand_reads_total", "Demand read requests observed by the system cache."},
	{"planaria_demand_writes_total", "Demand write requests observed by the system cache."},
	{"planaria_demand_hits_total", "Demand accesses that hit in the system cache."},
	{"planaria_demand_misses_total", "Demand accesses that missed in the system cache."},
	{"planaria_prefetch_issued_total", "Prefetch requests issued to DRAM."},
	{"planaria_prefetch_late_hits_total", "Demand reads served by a prefetch still in flight."},
	{"planaria_dram_row_hits_total", "DRAM accesses serviced from an open row."},
	{"planaria_dram_row_misses_total", "DRAM accesses that hit a row conflict (precharge + activate)."},
	{"planaria_dram_row_empty_total", "DRAM accesses to a closed bank (activate only)."},
}

// counts reads the unit's own counters in unitCounters order.
func (cs *channelState) counts() [len(unitCounters)]uint64 {
	c, d := cs.cache.Stats(), cs.dram.Stats()
	return [...]uint64{cs.demandReads, cs.demandWrites, c.DemandHits, c.DemandMisses,
		cs.pstats.Issued, cs.lateHits, d.RowHits, d.RowMisses, d.RowEmpty}
}

// unitTelemetry is one execution unit's instruments, registered on
// Config.Telemetry under its channel label. The two histograms record per
// event. The counters, and a tournament's per-component series, are
// published from the counters the unit keeps for the report (publish), so
// each fact is counted once.
type unitTelemetry struct {
	lateWait    *telemetry.Histogram // cycles a late demand waited on an in-flight prefetch
	firstUseGap *telemetry.Histogram // cycles between a prefetch fill and its first demand use

	counters [len(unitCounters)]*telemetry.Counter
	sent     [len(unitCounters)]uint64 // counts at the last publication

	// tour is the unit's prefetcher when it is a tournament, with a wins
	// counter and a selector-score gauge per component; nil otherwise.
	tour     *prefetch.Tournament
	wins     []*telemetry.Counter
	winsSent []uint64
	scores   []*telemetry.Gauge
}

// newUnitTelemetry registers one unit's instruments under its channel
// label, and a tournament prefetcher's per-component series under the
// channel and component labels.
func newUnitTelemetry(reg *telemetry.Registry, pf prefetch.Prefetcher, ch telemetry.Label) *unitTelemetry {
	t := &unitTelemetry{
		lateWait: reg.Histogram("planaria_prefetch_late_wait_cycles",
			"Cycles a late-hit demand waited out of the in-flight prefetch's remaining latency.", ch),
		firstUseGap: reg.Histogram("planaria_prefetch_first_use_gap_cycles",
			"Cycles between a prefetch fill landing and its first demand use (timeliness headroom).", ch),
	}
	for i, c := range unitCounters {
		t.counters[i] = reg.Counter(c.name, c.help, ch)
	}
	if tour, ok := pf.(*prefetch.Tournament); ok {
		t.tour = tour
		for i, c := range tour.Components() {
			comp := telemetry.Label{Key: "component", Value: c.Name()}
			t.wins = append(t.wins, reg.Counter("planaria_tournament_wins_total",
				"Triggers answered per tournament component.", ch, comp))
			t.scores = append(t.scores, reg.Gauge("planaria_tournament_score",
				"Live global (PSEL-style) selector score per tournament component.", ch, comp))
			t.winsSent = append(t.winsSent, tour.Issues(i))
		}
	}
	return t
}

// publish adds to the unit's counters what its own counts gained since the
// last publication, and sets a tournament's score gauges. The engine calls
// it where it owns the unit: after Run steps a parcel, in ResetStats before
// the counts are zeroed, and in Finish after the DRAM flush. It allocates
// nothing.
func (cs *channelState) publish() {
	t := cs.tel
	if t == nil {
		return
	}
	now := cs.counts()
	for i, c := range t.counters {
		c.Add(now[i] - t.sent[i])
	}
	t.sent = now
	for c, w := range t.wins {
		n := t.tour.Issues(c)
		w.Add(n - t.winsSent[c])
		t.winsSent[c] = n
		t.scores[c].Set(int64(t.tour.Meta().Score(c)))
	}
}

// newDRAMTelemetry registers one unit's DRAM-controller histograms.
func newDRAMTelemetry(reg *telemetry.Registry, ls ...telemetry.Label) *dram.Telemetry {
	return &dram.Telemetry{
		DemandReadLatency: reg.Histogram(telemetry.MetricDRAMDemandReadLatency,
			"Total DRAM service latency of demand reads, queueing included.", ls...),
		QueueDepth: reg.Histogram("planaria_dram_queue_depth",
			"Controller queue occupancy observed at each enqueue.", ls...),
	}
}

// Engine is one simulation instance. Not safe for concurrent use by
// callers; with Config.ParallelChannels set, Run internally drives every
// channel's execution unit from one goroutine each.
type Engine struct {
	cfg    Config
	units  []*channelState // one per channel, indexed by channel
	pfName string

	// cycle is the last admitted record's cycle (see admit).
	cycle uint64

	// Observability: requests counts records since the last statistics
	// reset; sampler is nil unless a sampling cadence was configured;
	// recorder is nil unless event tracing was configured.
	requests uint64
	sampler  *metrics.Sampler
	recorder *events.Recorder

	// runRecords and runExpected are the run-progress series, nil unless
	// Config.Telemetry was set.
	runRecords  *telemetry.Counter
	runExpected *telemetry.Gauge
}

// New builds an engine (start cfg from DefaultConfig); it panics on an
// invalid configuration (construction-time programming error).
func New(cfg Config) *Engine {
	if cfg.SubShards > 1 {
		panic(fmt.Sprintf("sim: SubShards %d: sub-sharding was removed; the engine runs one unit per channel", cfg.SubShards))
	}
	e := &Engine{cfg: cfg}
	e.runRecords, e.runExpected = telemetry.RunProgress(cfg.Telemetry)
	if cfg.Events != nil {
		e.recorder = events.NewRecorder(addr.Channels, cfg.Events.RingSize)
	}
	e.units = make([]*channelState, addr.Channels)
	for ch := range e.units {
		ccfg := cfg.Cache
		ccfg.Seed += int64(ch)
		pf := cfg.NewPrefetcher(ch)
		cs := &channelState{
			cfg:   &e.cfg,
			cache: cache.New(ccfg),
			dram:  dram.NewController(cfg.DRAM),
			pf:    pf,
			kept:  make([]addr.BlockNum, 0, prefetchQueueCap),
		}
		cs.tracker, _ = pf.(originTracker)
		cs.issuer, _ = pf.(prefetch.BufferedIssuer)
		if e.recorder != nil {
			cs.ev = e.recorder.Channel(ch)
			if es, ok := pf.(eventSinkSetter); ok {
				es.SetEventSink(cs.ev)
			}
		}
		if cfg.Telemetry != nil {
			label := telemetry.Label{Key: "channel", Value: strconv.Itoa(ch)}
			cs.tel = newUnitTelemetry(cfg.Telemetry, pf, label)
			cs.dram.SetTelemetry(newDRAMTelemetry(cfg.Telemetry, label))
			cs.cache.EnableFillStamps()
		}
		e.units[ch] = cs
	}
	e.pfName = e.units[0].pf.Name()
	if cfg.SampleEvery > 0 || cfg.SampleEveryCycles > 0 {
		e.sampler = metrics.NewSampler(cfg.SampleEvery, cfg.SampleEveryCycles)
	}
	return e
}

// PrefetcherName returns the name of the configured prefetcher.
func (e *Engine) PrefetcherName() string { return e.pfName }

// Channel exposes a channel's prefetcher (for breakdown analyses).
func (e *Engine) Channel(ch int) prefetch.Prefetcher { return e.units[ch].pf }

// Events returns the event recorder, nil unless Config.Events was set.
// Consumers read rings only after a run has returned; the attribution
// snapshot is safe to take live.
func (e *Engine) Events() *events.Recorder { return e.recorder }

// DRAM exposes a channel's memory controller (debugging and tooling).
func (e *Engine) DRAM(ch int) *dram.Controller { return e.units[ch].dram }

// ResetStats discards all statistics gathered so far while preserving the
// functional and timing state of every component — the standard warmup
// mechanism: run the first part of a trace, call ResetStats, then measure
// the rest against warm caches and trained prefetchers. Live telemetry is
// never reset: each unit publishes its counts first.
func (e *Engine) ResetStats() {
	for _, cs := range e.units {
		cs.publish()
		cs.cache.ResetStats()
		cs.dram.ResetStats()
		cs.pstats = prefetch.Stats{}
		cs.metaEvents = 0
		cs.scEvents = 0
		cs.readLatency = 0
		cs.lateHits = 0
		cs.demandReads = 0
		cs.demandWrites = 0
		cs.usefulOrigin = [events.NumOrigins]uint64{}
		cs.lateOrigin = [events.NumOrigins]uint64{}
		cs.statsFrom = cs.lastCycle
		if cs.tel != nil {
			cs.tel.sent = cs.counts()
		}
	}
	if e.recorder != nil {
		// Event-level attribution must cover the same measured region as
		// the aggregate report, or the two stop reconciling. Rings are
		// left intact — warmup events are still useful context in a trace.
		e.recorder.ResetAttrib()
	}
	e.requests = 0
	if e.sampler != nil {
		var from uint64
		for _, cs := range e.units {
			if cs.lastCycle > from {
				from = cs.lastCycle
			}
		}
		e.sampler.Reset(from)
	}
}

// commitPending lands every in-flight prefetch whose latency has elapsed.
func (cs *channelState) commitPending(now uint64) error {
	for cs.pending.size() > 0 && cs.pending.front().ready <= now {
		p := *cs.pending.front()
		cs.pending.pop()
		// A fill whose demand already waited on it arrives "pre-used":
		// the usefulness credit was given as a late hit.
		ev := cs.cache.FillOrigin(p.block, !p.usedLate, false, uint8(p.origin))
		if err := cs.writeback(ev, now); err != nil {
			return err
		}
		cs.noteEvict(ev, p.ready)
		if cs.tel != nil && !p.usedLate {
			// Stamp the fill cycle so the first demand use can report the
			// fill→use gap (pre-used fills were already credited late).
			cs.cache.StampFill(p.block, p.ready)
		}
		if p.usedLate {
			cs.usefulOrigin[p.origin]++
		}
		if cs.ev != nil {
			// FlagLate here is the fill-time half of the late-hit credit:
			// attribution counts "late" when the fill lands, matching
			// when usefulOrigin is credited above.
			var fl events.Flags
			if p.usedLate {
				fl = events.FlagLate
			}
			cs.ev.Emit(events.Event{
				Kind: events.KindFill, Cycle: p.ready, Block: p.block,
				Origin: p.origin, Flags: fl,
			})
		}
		cs.scEvents++
	}
	return nil
}

// noteEvict emits the evicted-unused terminal event when a fill's victim was
// a never-demanded prefetch.
func (cs *channelState) noteEvict(ev cache.EvictInfo, cycle uint64) {
	if cs.ev == nil || !ev.Valid || !ev.Prefetched {
		return
	}
	cs.ev.Emit(events.Event{
		Kind: events.KindEvictUnused, Cycle: cycle, Block: ev.Block,
		Origin: events.Origin(ev.Origin),
	})
}

// step processes one trace record belonging to this channel. It touches no
// engine-global state, which is the invariant the parallel mode rests on.
func (cs *channelState) step(rec trace.Record) error {
	blk := rec.Block()
	cs.lastCycle = rec.Cycle // admit keeps cycles non-decreasing
	if err := cs.commitPending(rec.Cycle); err != nil {
		return err
	}
	cs.scEvents++

	hit, firstUse, usedOrigin := cs.cache.AccessOrigin(blk, rec.Write)
	if firstUse {
		cs.usefulOrigin[usedOrigin]++
		if cs.ev != nil {
			cs.ev.Emit(events.Event{
				Kind: events.KindUsed, Cycle: rec.Cycle, Block: blk,
				Origin: events.Origin(usedOrigin),
			})
		}
		if cs.tel != nil {
			if at, ok := cs.cache.FillStamp(blk); ok && rec.Cycle >= at {
				cs.tel.firstUseGap.Record(rec.Cycle - at)
			}
		}
	}
	// late stays valid only until the next pending push; every use below
	// happens before the issuing phase appends.
	var late *pendingFill
	if !hit {
		late = cs.pending.find(blk)
	}
	if cs.ev != nil {
		var fl events.Flags
		if rec.Write {
			fl |= events.FlagWrite
		}
		if hit {
			fl |= events.FlagHit
		}
		if late != nil {
			fl |= events.FlagLate
		}
		cs.ev.Emit(events.Event{Kind: events.KindDemand, Cycle: rec.Cycle, Block: blk, Flags: fl})
	}
	if rec.Write {
		cs.demandWrites++
	} else {
		cs.demandReads++
		switch {
		case hit:
			cs.readLatency += cs.cfg.SCHitLatency
		case late != nil:
			// Late prefetch: wait out the remaining fill time.
			cs.lateHits++
			cs.lateOrigin[late.origin]++
			cs.readLatency += cs.cfg.SCHitLatency + (late.ready - rec.Cycle)
			if cs.ev != nil {
				cs.ev.Emit(events.Event{
					Kind: events.KindLateHit, Cycle: rec.Cycle, Block: blk,
					Aux: late.ready, Origin: late.origin,
				})
			}
			if cs.tel != nil {
				cs.tel.lateWait.Record(late.ready - rec.Cycle)
			}
		}
	}

	a := prefetch.Access{Block: blk, Cycle: rec.Cycle, Write: rec.Write, Miss: !hit}
	cs.pf.Train(a)
	cs.metaEvents++

	if !hit && late == nil {
		// Demand fill from DRAM (write misses are write-allocate
		// fetches: same priority, excluded from read AMAT).
		req := cs.dram.NewRequest()
		req.Block = blk
		req.Write = false
		req.WriteAlloc = rec.Write
		req.Arrival = rec.Cycle + cs.cfg.SCHitLatency
		if err := cs.dram.Enqueue(req); err != nil {
			return err
		}
		ev := cs.cache.Fill(blk, false, rec.Write)
		if err := cs.writeback(ev, rec.Cycle); err != nil {
			return err
		}
		cs.noteEvict(ev, rec.Cycle)
		cs.scEvents++
	}
	if late != nil {
		late.usedLate = true
		if rec.Write {
			// The write needs the line now; the in-flight fill merges
			// into it harmlessly when it lands.
			ev := cs.cache.Fill(blk, false, true)
			if err := cs.writeback(ev, rec.Cycle); err != nil {
				return err
			}
			cs.noteEvict(ev, rec.Cycle)
			cs.scEvents++
		}
	}

	// Issuing phase, through the persistent candidate buffer when the
	// prefetcher supports it (all built-ins do).
	var cands []addr.BlockNum
	if cs.issuer != nil {
		cs.cands = cs.issuer.IssueTo(a, cs.cands[:0])
		cands = cs.cands
	} else {
		cands = cs.pf.Issue(a)
	}
	origin := events.OriginNone
	if len(cands) > 0 {
		if cs.tracker != nil {
			origin = events.OriginFromName(cs.tracker.Origin())
		}
		cs.metaEvents++
	}
	// Filter pass: count every candidate before any reaches DRAM, so an
	// enqueue error below leaves the whole trigger counted. A prefetcher
	// instance may only target its own channel, the trigger's: foreign
	// targets are dropped, which defends against buggy custom prefetchers
	// rather than silently corrupting another channel's cache.
	cs.kept = cs.kept[:0]
	for _, c := range cands {
		cs.pstats.Candidates++
		switch {
		case c.Channel() != blk.Channel() || len(cs.kept) >= cs.cfg.MaxPerTrigger:
			cs.pstats.Dropped++
		case cs.cache.Contains(c) || cs.pending.find(c) != nil || slices.Contains(cs.kept, c):
			cs.pstats.Filtered++ // resident, in flight, or kept earlier
		case len(cs.kept) >= prefetchQueueCap:
			cs.pstats.Dropped++
		default:
			cs.kept = append(cs.kept, c)
			cs.pstats.Issued++
		}
	}
	// Issue pass, in candidate order; fills land PrefetchLatency later.
	for _, c := range cs.kept {
		req := cs.dram.NewRequest()
		req.Block = c
		req.Prefetch = true
		req.Arrival = rec.Cycle + cs.cfg.SCHitLatency
		if err := cs.dram.Enqueue(req); err != nil {
			return err
		}
		cs.pending.push(pendingFill{
			block:  c,
			ready:  rec.Cycle + cs.cfg.PrefetchLatency,
			origin: origin,
		})
		if cs.ev != nil {
			cs.ev.Emit(events.Event{
				Kind: events.KindIssue, Cycle: rec.Cycle, Block: c,
				Aux:    rec.Cycle + cs.cfg.PrefetchLatency,
				Origin: origin,
			})
		}
	}
	return nil
}

// writeback enqueues the dirty victim of a fill, if any.
func (cs *channelState) writeback(ev cache.EvictInfo, cycle uint64) error {
	if !ev.Valid || !ev.Dirty {
		return nil
	}
	req := cs.dram.NewRequest()
	req.Block = ev.Block
	req.Write = true
	req.Arrival = cycle + cs.cfg.SCHitLatency
	return cs.dram.Enqueue(req)
}

// addByOrigin folds per-origin counts into a by-name map, allocating the
// map only when a count exists. Untagged prefetches have no origin to name.
func addByOrigin(dst map[string]uint64, counts *[events.NumOrigins]uint64) map[string]uint64 {
	for o, n := range counts {
		if o == int(events.OriginNone) || n == 0 {
			continue
		}
		if dst == nil {
			dst = make(map[string]uint64)
		}
		dst[events.Origin(o).String()] += n
	}
	return dst
}

// admit enforces the trace contract that arrival cycles never decrease. It
// runs where records enter the engine, in Step and in Run's splitter, so a
// record whose cycle goes backwards is refused before any component sees
// it, whether or not it would reach DRAM.
func (e *Engine) admit(cycle uint64) error {
	if cycle < e.cycle {
		return fmt.Errorf("sim: record at cycle %d follows one at cycle %d; trace cycles must not decrease", cycle, e.cycle)
	}
	e.cycle = cycle
	return nil
}

// Step processes one trace record (the incremental, always-serial API). It
// refuses a record whose cycle is below the previous record's.
func (e *Engine) Step(rec trace.Record) error {
	if err := e.admit(rec.Cycle); err != nil {
		return err
	}
	cs := e.units[rec.Block().Channel()]
	if err := cs.step(rec); err != nil {
		return err
	}
	if e.sampler != nil {
		e.requests++
		if e.sampler.Due(e.requests, rec.Cycle) {
			e.sampler.Record(e.snapshot(rec.Cycle))
		}
	}
	return nil
}

// snapshot sums every unit's counters into one cumulative snapshot at the
// given trace cycle. It is the only place unit counters are summed: the
// sampler closes windows on snapshots, and Finish builds the report from
// its final one.
func (e *Engine) snapshot(cycle uint64) metrics.Snapshot {
	s := metrics.Snapshot{Cycle: cycle, Requests: e.requests}
	for _, cs := range e.units {
		dstats := cs.dram.Stats()
		s.DemandReads += cs.demandReads
		s.DemandWrites += cs.demandWrites
		addCache(&s.Cache, cs.cache.Stats())
		addDRAM(&s.DRAM, dstats)
		addPF(&s.Prefetch, cs.pstats)
		s.StorageBits += cs.pf.StorageBits()
		s.LatePrefetchHits += cs.lateHits
		s.UsefulByOrigin = addByOrigin(s.UsefulByOrigin, &cs.usefulOrigin)
		s.LateByOrigin = addByOrigin(s.LateByOrigin, &cs.lateOrigin)
		// Read AMAT numerator: SC time of hits and late-prefetch waits,
		// plus lookup latency and DRAM service for true read misses (one
		// demand DRAM read per such miss).
		s.ReadLatency += cs.readLatency + dstats.DemandReads*e.cfg.SCHitLatency +
			dstats.TotalDemandReadLat
		if end := cs.end(); end > cs.statsFrom {
			s.Cycles = max(s.Cycles, end-cs.statsFrom)
		}
	}
	for _, cs := range e.units {
		s.Energy = power.Add(s.Energy,
			power.Account(cs.dram.Stats(), cs.scEvents, cs.metaEvents,
				uint64(cs.pf.StorageBits()), s.Cycles))
	}
	return s
}

// end is the last cycle this unit's trace clock or DRAM controller reached.
func (cs *channelState) end() uint64 {
	return max(cs.lastCycle, cs.dram.Stats().LastDone)
}

// Finish flushes the DRAM controllers, publishes each unit's counts to live
// telemetry and builds the report from one final snapshot, on which it also
// closes the sampler's last window.
func (e *Engine) Finish(workload string) metrics.Report {
	var end uint64
	for _, cs := range e.units {
		// Land every in-flight prefetch at its own ready cycle, so each
		// dirty victim's writeback reaches DRAM in order. admit keeps
		// cycles non-decreasing, so every fill left here is ready after
		// this unit's last record, and DRAM accepts every such writeback.
		for cs.pending.size() > 0 {
			_ = cs.commitPending(cs.pending.front().ready)
		}
		cs.dram.Flush()
		cs.publish()
		end = max(end, cs.end())
	}
	snap := e.snapshot(end)
	rep := snap.Report
	rep.Workload = workload
	rep.Prefetcher = e.pfName
	rep.Channels = addr.Channels
	rep.SCHitLatency = e.cfg.SCHitLatency
	if rep.UsefulByOrigin == nil {
		rep.UsefulByOrigin = make(map[string]uint64)
	}
	if rep.DemandReads > 0 {
		rep.AMAT = float64(snap.ReadLatency) / float64(rep.DemandReads)
	}
	if e.sampler != nil {
		rep.Series = e.sampler.Finish(snap)
	}
	// Telemetry summary (nil when disabled, so the report JSON — and with
	// it the golden digests — is bit-identical to a telemetry-free run).
	rep.Telemetry = e.cfg.Telemetry.Summary()
	return rep
}

func addCache(dst *cache.Stats, s cache.Stats) {
	dst.DemandAccesses += s.DemandAccesses
	dst.DemandHits += s.DemandHits
	dst.DemandMisses += s.DemandMisses
	dst.PrefetchFills += s.PrefetchFills
	dst.DemandFills += s.DemandFills
	dst.UsefulPrefetches += s.UsefulPrefetches
	dst.WastedPrefetches += s.WastedPrefetches
	dst.Writebacks += s.Writebacks
	dst.Evictions += s.Evictions
	dst.PollutionEvicts += s.PollutionEvicts
}

func addDRAM(dst *dram.Stats, s dram.Stats) {
	dst.Reads += s.Reads
	dst.Writes += s.Writes
	dst.Activates += s.Activates
	dst.Precharges += s.Precharges
	dst.Refreshes += s.Refreshes
	dst.RowHits += s.RowHits
	dst.RowMisses += s.RowMisses
	dst.RowEmpty += s.RowEmpty
	dst.DemandReads += s.DemandReads
	dst.PrefReads += s.PrefReads
	dst.AllocReads += s.AllocReads
	dst.TotalDemandReadLat += s.TotalDemandReadLat
	dst.BusBusy += s.BusBusy
	dst.PowerDownCycles += s.PowerDownCycles
	dst.PowerDownEntries += s.PowerDownEntries
	for i := range s.LatencyHist {
		dst.LatencyHist[i] += s.LatencyHist[i]
	}
	if s.LastDone > dst.LastDone {
		dst.LastDone = s.LastDone
	}
}

func addPF(dst *prefetch.Stats, s prefetch.Stats) {
	dst.Candidates += s.Candidates
	dst.Filtered += s.Filtered
	dst.Issued += s.Issued
	dst.Dropped += s.Dropped
}
