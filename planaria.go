// Package planaria is the public API of the Planaria reproduction — a
// memory-side composite prefetcher for mobile system caches (Liu & Chen,
// "Planaria: Pattern Directed Cross-page Composite Prefetcher", DAC 2024)
// together with the trace-driven memory-system simulator used to evaluate
// it.
//
// The package wraps the internal implementation with a small surface:
//
//   - Simulator runs a memory trace through the system cache, a chosen
//     prefetcher and the LPDDR4 model, and returns a Result.
//   - Workloads and GenerateTrace produce the ten synthetic mobile
//     application traces used by the paper's evaluation (Table 2).
//   - Custom prefetchers implement the Prefetcher interface and plug into
//     the simulator alongside the built-ins.
//
// A minimal run:
//
//	sim, _ := planaria.NewSimulator(planaria.Options{Prefetcher: "planaria"})
//	res, _ := sim.Run(planaria.GenerateTrace("CFM", 100_000))
//	fmt.Printf("hit rate %.1f%%, AMAT %.1f cycles\n", 100*res.HitRate, res.AMAT)
package planaria

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/prefetch"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Access is one memory-bus request: the input unit of the simulator. Addr is
// a physical byte address (block aligned internally), Cycle the arrival time
// in memory-controller cycles; accesses must be supplied in non-decreasing
// cycle order.
type Access struct {
	Addr   uint64
	Cycle  uint64
	Write  bool
	Device string // SoC agent mnemonic: cpu0..cpu7, gpu, npu, isp, dsp
}

// Options configures a Simulator. The zero value selects the paper's system
// (4 MB 16-way SC over four LPDDR4 channels) with no prefetcher.
type Options struct {
	// Prefetcher selects the hardware prefetcher by name; see
	// Prefetchers for the list. Empty means "none".
	Prefetcher string
	// Custom, when non-nil, overrides Prefetcher with a user
	// implementation; the constructor is called once per DRAM channel.
	Custom func(channel int) Prefetcher

	// Tournament, when non-empty, overrides Prefetcher with a tournament
	// over the named built-ins: the listed prefetchers become the
	// components, in priority order (component 0 is the fallback), under
	// the set-dueling meta-predictor (docs/PREFETCHERS.md). Each name must
	// be a built-in that supports shadow prediction — currently planaria
	// and its variants, nextline, stride, markov and accel; bop and spp do
	// not qualify and are rejected by NewSimulator.
	Tournament []string
	// TournamentCustom, when non-nil, appends user components to the
	// tournament after the named ones; the constructor is called once per
	// DRAM channel. When Tournament is empty, the custom components join
	// planaria-tournament's components (planaria, stride, markov, accel).
	TournamentCustom func(channel int) []Component

	// CacheBytes is the per-channel SC slice capacity (default 1 MiB —
	// one quarter of the paper's 4 MB SC).
	CacheBytes int
	// CacheWays is the SC associativity (default 16).
	CacheWays int
	// CachePolicy selects the replacement policy: "lru" (default),
	// "srrip", "drrip" or "random".
	CachePolicy string
	// SCHitLatency is the SC hit time in cycles (default 30).
	SCHitLatency uint64
	// PrefetchLatency is the cycles before a prefetched block becomes
	// usable (default 110).
	PrefetchLatency uint64
	// MaxPrefetchPerTrigger caps prefetches accepted per demand access
	// (default 16).
	MaxPrefetchPerTrigger int
}

// Prefetcher is the public plug-in interface, mirroring the paper's
// decoupled design: Train observes every demand access (the learning phase);
// Issue returns block addresses to prefetch (the issuing phase). Block
// addresses returned by Issue are byte addresses of 64-byte blocks on the
// same channel as the triggering access.
type Prefetcher interface {
	Name() string
	Train(a Access, miss bool)
	Issue(a Access, miss bool) []uint64
	// StorageBits returns the hardware budget of the prefetcher's
	// metadata in bits (used by the power model and storage report).
	StorageBits() int
}

// Component is the public tournament-entrant interface: a Prefetcher that
// can additionally predict without side effects. Peek returns the block
// addresses the component would issue for the access without mutating any
// learned state — the tournament calls it on every component for every
// trigger to score its meta-predictor, so it must be cheap and pure.
type Component interface {
	Prefetcher
	Peek(a Access, miss bool) []uint64
}

// customAdapter bridges a public Prefetcher to the internal interface.
type customAdapter struct{ p Prefetcher }

func (c customAdapter) Name() string     { return c.p.Name() }
func (c customAdapter) StorageBits() int { return c.p.StorageBits() }
func (c customAdapter) Reset()           {}

func (c customAdapter) Train(a prefetch.Access) {
	c.p.Train(Access{Addr: uint64(a.Block.Addr()), Cycle: a.Cycle, Write: a.Write}, a.Miss)
}

func (c customAdapter) Issue(a prefetch.Access) []addr.BlockNum {
	targets := c.p.Issue(Access{Addr: uint64(a.Block.Addr()), Cycle: a.Cycle, Write: a.Write}, a.Miss)
	out := make([]addr.BlockNum, 0, len(targets))
	for _, t := range targets {
		out = append(out, addr.Addr(t).Block())
	}
	return out
}

// componentAdapter bridges a public Component (custom tournament entrant)
// to the internal Component interface.
type componentAdapter struct{ customAdapter }

func (c componentAdapter) Peek(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	targets := c.p.(Component).Peek(Access{Addr: uint64(a.Block.Addr()), Cycle: a.Cycle, Write: a.Write}, a.Miss)
	for _, t := range targets {
		dst = append(dst, addr.Addr(t).Block())
	}
	return dst
}

// tournamentFactory builds the per-channel constructor for
// Options.Tournament / Options.TournamentCustom, validating the component
// names eagerly so NewSimulator fails fast on a non-Component built-in.
func tournamentFactory(opts Options) (func(int) prefetch.Prefetcher, error) {
	factories := make([]func(int) prefetch.Prefetcher, len(opts.Tournament))
	for i, name := range opts.Tournament {
		f, err := sim.NamedPrefetcher(name)
		if err != nil {
			return nil, err
		}
		if _, ok := f(0).(prefetch.Component); !ok {
			return nil, fmt.Errorf("planaria: prefetcher %q cannot enter a tournament (no shadow prediction)", name)
		}
		factories[i] = f
	}
	return func(ch int) prefetch.Prefetcher {
		var comps []prefetch.Component
		for _, f := range factories {
			comps = append(comps, f(ch).(prefetch.Component))
		}
		if len(comps) == 0 {
			comps = sim.TournamentComponents()
		}
		if opts.TournamentCustom != nil {
			for _, c := range opts.TournamentCustom(ch) {
				comps = append(comps, componentAdapter{customAdapter{p: c}})
			}
		}
		return prefetch.NewTournament(prefetch.TournamentConfig{Name: "tournament"}, comps...)
	}, nil
}

// Prefetchers lists the built-in prefetcher names accepted by
// Options.Prefetcher: none, nextline, stride, markov, accel, bop, spp,
// spp-ghr, planaria and the planaria-slp / planaria-tlp / planaria-serial /
// planaria-parallel / planaria-tournament variants.
func Prefetchers() []string { return sim.PrefetcherNames() }

// Result summarises one simulation run.
type Result struct {
	Workload   string
	Prefetcher string

	DemandReads  uint64
	DemandWrites uint64

	HitRate  float64 // SC demand hit rate
	AMAT     float64 // average memory access time of demand reads, cycles
	IPC      float64 // estimated instructions per cycle (relative model)
	Coverage float64 // fraction of would-be misses removed by prefetching
	Accuracy float64 // useful prefetch fills / prefetch fills

	DRAMTraffic    uint64  // total block transfers (reads + writes)
	PrefetchReads  uint64  // prefetch-originated DRAM reads
	PrefetchIssued uint64  // prefetches sent to DRAM
	EnergyPJ       float64 // memory-system energy, picojoules
	AvgPowerMW     float64 // at the 1600 MHz controller clock
	StorageBits    int     // prefetcher metadata across channels
	Cycles         uint64  // wall-clock duration
}

func resultFrom(rep metrics.Report) Result {
	model := metrics.DefaultIPCModel()
	return Result{
		Workload:       rep.Workload,
		Prefetcher:     rep.Prefetcher,
		DemandReads:    rep.DemandReads,
		DemandWrites:   rep.DemandWrites,
		HitRate:        rep.HitRate(),
		AMAT:           rep.AMAT,
		IPC:            model.IPC(rep.AMAT),
		Coverage:       rep.Coverage(),
		Accuracy:       rep.Accuracy(),
		DRAMTraffic:    rep.Traffic(),
		PrefetchReads:  rep.DRAM.PrefReads,
		PrefetchIssued: rep.Prefetch.Issued,
		EnergyPJ:       rep.Energy.Total(),
		AvgPowerMW:     rep.PowerMW(1600),
		StorageBits:    rep.StorageBits,
		Cycles:         rep.Cycles,
	}
}

// Simulator is one configured instance of the memory-system model. It is
// single-use: build, feed one trace (via Run or Step), read the Result.
type Simulator struct {
	eng      *sim.Engine
	workload string
	finished bool
}

// NewSimulator builds a simulator from opts.
func NewSimulator(opts Options) (*Simulator, error) {
	cfg := sim.DefaultConfig()
	switch {
	case opts.Custom != nil:
		cfg.NewPrefetcher = func(ch int) prefetch.Prefetcher {
			return customAdapter{p: opts.Custom(ch)}
		}
	case len(opts.Tournament) > 0 || opts.TournamentCustom != nil:
		f, err := tournamentFactory(opts)
		if err != nil {
			return nil, err
		}
		cfg.NewPrefetcher = f
	case opts.Prefetcher != "":
		f, err := sim.NamedPrefetcher(opts.Prefetcher)
		if err != nil {
			return nil, err
		}
		cfg.NewPrefetcher = f
	}
	if opts.CacheBytes > 0 {
		cfg.Cache.SizeBytes = opts.CacheBytes
	}
	if opts.CacheWays > 0 {
		cfg.Cache.Ways = opts.CacheWays
	}
	if opts.CachePolicy != "" {
		pol, err := cache.ParsePolicy(opts.CachePolicy)
		if err != nil {
			return nil, err
		}
		cfg.Cache.Policy = pol
	}
	if err := cfg.Cache.Validate(); err != nil {
		return nil, err
	}
	if opts.SCHitLatency > 0 {
		cfg.SCHitLatency = opts.SCHitLatency
	}
	if opts.PrefetchLatency > 0 {
		cfg.PrefetchLatency = opts.PrefetchLatency
	}
	if opts.MaxPrefetchPerTrigger > 0 {
		cfg.MaxPerTrigger = opts.MaxPrefetchPerTrigger
	}
	return &Simulator{eng: sim.New(cfg)}, nil
}

func toRecord(a Access) (trace.Record, error) {
	dev := trace.CPU0
	if a.Device != "" {
		d, err := trace.ParseDevice(a.Device)
		if err != nil {
			return trace.Record{}, err
		}
		dev = d
	}
	return trace.Record{Addr: addr.Addr(a.Addr), Cycle: a.Cycle, Device: dev, Write: a.Write}, nil
}

// Step feeds one access into the simulator. It refuses an access whose
// cycle is below the previous access's.
func (s *Simulator) Step(a Access) error {
	if s.finished {
		return fmt.Errorf("planaria: simulator already finished")
	}
	rec, err := toRecord(a)
	if err != nil {
		return err
	}
	return s.eng.Step(rec)
}

// Run feeds a whole trace and returns the result. It may be called once.
func (s *Simulator) Run(accesses []Access) (Result, error) {
	for _, a := range accesses {
		if err := s.Step(a); err != nil {
			return Result{}, err
		}
	}
	return s.Finish(), nil
}

// Finish flushes the memory system and returns the result. Further Steps
// are rejected.
func (s *Simulator) Finish() Result {
	s.finished = true
	return resultFrom(s.eng.Finish(s.workload))
}

// SetWorkloadName labels the result (cosmetic).
func (s *Simulator) SetWorkloadName(name string) { s.workload = name }

// WorkloadInfo describes one catalog application (Table 2 of the paper).
type WorkloadInfo struct {
	Name        string
	Abbr        string
	Description string
}

// Workloads lists the ten Table 2 applications.
func Workloads() []WorkloadInfo {
	cat := workloads.Catalog()
	out := make([]WorkloadInfo, len(cat))
	for i, p := range cat {
		out[i] = WorkloadInfo{Name: p.Name, Abbr: p.Abbr, Description: p.Description}
	}
	return out
}

// GenerateTrace synthesises n accesses of the named catalog application
// (by Table 2 abbreviation). It panics on an unknown abbreviation; use
// Workloads to enumerate valid names.
func GenerateTrace(abbr string, n int) []Access {
	p, ok := workloads.ByAbbr(abbr)
	if !ok {
		panic(fmt.Sprintf("planaria: unknown workload %q", abbr))
	}
	t := p.Generate(n)
	out := make([]Access, len(t))
	for i, r := range t {
		out[i] = Access{Addr: uint64(r.Addr), Cycle: r.Cycle, Write: r.Write, Device: r.Device.String()}
	}
	return out
}

func toTrace(accesses []Access) (trace.Trace, error) {
	t := make(trace.Trace, len(accesses))
	for i, a := range accesses {
		rec, err := toRecord(a)
		if err != nil {
			return nil, err
		}
		t[i] = rec
	}
	return t, nil
}

// OverlapRate computes the paper's Figure 3/4 metric on a trace: the mean
// window-to-window footprint overlap across all pages (1 = perfectly stable
// snapshots).
func OverlapRate(accesses []Access) (float64, error) {
	t, err := toTrace(accesses)
	if err != nil {
		return 0, err
	}
	return analysis.OverlapRate(t), nil
}

// NeighborProportion computes the paper's Figure 5 metric: for each distance
// threshold in dists, the fraction of pages with a "learnable neighbour"
// whose observed footprint differs by at most diffBits.
func NeighborProportion(accesses []Access, dists []uint64, diffBits int) ([]float64, error) {
	t, err := toTrace(accesses)
	if err != nil {
		return nil, err
	}
	return analysis.NeighborProportion(t, dists, diffBits), nil
}

// RunWorkload is the one-call convenience: simulate n accesses of the named
// application under the named prefetcher.
func RunWorkload(abbr, prefetcher string, n int) (Result, error) {
	s, err := NewSimulator(Options{Prefetcher: prefetcher})
	if err != nil {
		return Result{}, err
	}
	s.SetWorkloadName(abbr)
	return s.Run(GenerateTrace(abbr, n))
}
