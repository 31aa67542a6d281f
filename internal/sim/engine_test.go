package sim

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/prefetch"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// smallConfig returns an engine configuration with tiny caches so residency
// effects show up quickly in tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache = cache.Config{SizeBytes: 1 << 14, Ways: 4, Policy: cache.LRU}
	return cfg
}

// visitTrace emits n sequential whole-page visits with the given footprint
// offsets, gap cycles apart.
func visitTrace(pages []addr.PageNum, offs []int, gap uint64) trace.Trace {
	var t trace.Trace
	cycle := uint64(0)
	for _, p := range pages {
		for _, o := range offs {
			t = append(t, trace.Record{Addr: p.Block(o).Addr(), Cycle: cycle})
			cycle += gap
		}
	}
	return t
}

func TestRunEmptyTrace(t *testing.T) {
	eng := New(smallConfig())
	rep, err := eng.RunStream(trace.Trace(nil).Stream(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if rep.DemandReads != 0 || rep.AMAT != 0 {
		t.Fatalf("empty run produced %+v", rep)
	}
}

func TestColdMissesAndRevisitHits(t *testing.T) {
	eng := New(smallConfig())
	p := addr.PageNum(42)
	tr := visitTrace([]addr.PageNum{p, p}, []int{0, 1, 2, 3}, 100)
	rep, err := eng.RunStream(tr.Stream(), "t")
	if err != nil {
		t.Fatal(err)
	}
	// First visit: 4 misses. Second visit: 4 hits (fits in cache).
	if rep.Cache.DemandMisses != 4 || rep.Cache.DemandHits != 4 {
		t.Fatalf("hits/misses = %d/%d, want 4/4", rep.Cache.DemandHits, rep.Cache.DemandMisses)
	}
	if rep.HitRate() != 0.5 {
		t.Fatalf("hit rate %v", rep.HitRate())
	}
	// AMAT must be ≥ the hit latency and include miss cost.
	if rep.AMAT <= float64(rep.SCHitLatency) {
		t.Fatalf("AMAT %v implausibly low", rep.AMAT)
	}
}

func TestDemandMissesGoToDRAM(t *testing.T) {
	eng := New(smallConfig())
	tr := visitTrace([]addr.PageNum{1, 2, 3}, []int{0, 5, 9}, 50)
	rep, err := eng.RunStream(tr.Stream(), "t")
	if err != nil {
		t.Fatal(err)
	}
	if rep.DRAM.DemandReads != rep.Cache.DemandMisses {
		t.Fatalf("DRAM demand reads %d != cache misses %d", rep.DRAM.DemandReads, rep.Cache.DemandMisses)
	}
}

func TestWriteAllocExcludedFromReadAMAT(t *testing.T) {
	eng := New(smallConfig())
	// All writes: no demand reads, so AMAT must be 0 and the DRAM reads
	// must be classified as write-allocates.
	var tr trace.Trace
	for i := 0; i < 10; i++ {
		tr = append(tr, trace.Record{Addr: addr.PageNum(i).Block(0).Addr(), Cycle: uint64(i * 50), Write: true})
	}
	rep, err := eng.RunStream(tr.Stream(), "w")
	if err != nil {
		t.Fatal(err)
	}
	if rep.AMAT != 0 || rep.DemandReads != 0 {
		t.Fatalf("write-only run: AMAT %v, reads %d", rep.AMAT, rep.DemandReads)
	}
	if rep.DRAM.AllocReads != 10 || rep.DRAM.DemandReads != 0 {
		t.Fatalf("alloc/demand reads = %d/%d", rep.DRAM.AllocReads, rep.DRAM.DemandReads)
	}
}

func TestWritebackTraffic(t *testing.T) {
	cfg := smallConfig()
	cfg.Cache = cache.Config{SizeBytes: 1 << 12, Ways: 2, Policy: cache.LRU} // 64 blocks
	eng := New(cfg)
	// Dirty the whole tiny cache, then stream new blocks to force dirty
	// evictions.
	var tr trace.Trace
	cycle := uint64(0)
	for i := 0; i < 256; i++ {
		tr = append(tr, trace.Record{Addr: addr.BlockNum(i).Addr(), Cycle: cycle, Write: true})
		cycle += 50
	}
	rep, err := eng.RunStream(tr.Stream(), "wb")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Writebacks == 0 {
		t.Fatal("no writebacks recorded")
	}
	if rep.DRAM.Writes != rep.Cache.Writebacks {
		t.Fatalf("DRAM writes %d != writebacks %d", rep.DRAM.Writes, rep.Cache.Writebacks)
	}
}

// TestFinishLandsEveryFill runs each catalog app without warmup, so the
// report counts every access: after Finish no prefetch fill may still be
// in flight, and every dirty victim the SC wrote back must have reached
// DRAM — including those evicted by the fills Finish itself lands.
func TestFinishLandsEveryFill(t *testing.T) {
	apps := workloads.Catalog()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, p := range apps {
		tr := p.Generate(50_000)
		for _, pf := range []string{"planaria", "planaria-tournament", "bop", "spp", "none"} {
			factory, err := NamedPrefetcher(pf)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.NewPrefetcher = factory
			eng := New(cfg)
			rep, err := eng.RunStream(tr.Stream(), p.Abbr)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Cache.Writebacks != rep.DRAM.Writes {
				t.Errorf("%s/%s: %d writebacks, %d DRAM writes", p.Abbr, pf, rep.Cache.Writebacks, rep.DRAM.Writes)
			}
			for ch, cs := range eng.units {
				if n := cs.pending.size(); n != 0 {
					t.Errorf("%s/%s: channel %d has %d fills in flight after Finish", p.Abbr, pf, ch, n)
				}
			}
		}
	}
}

// scriptedPrefetcher issues fixed targets on every miss.
type scriptedPrefetcher struct {
	targets []addr.BlockNum
	onHit   bool
}

func (s *scriptedPrefetcher) Name() string          { return "scripted" }
func (s *scriptedPrefetcher) Train(prefetch.Access) {}
func (s *scriptedPrefetcher) StorageBits() int      { return 1 }
func (s *scriptedPrefetcher) Reset()                {}
func (s *scriptedPrefetcher) Issue(a prefetch.Access) []addr.BlockNum {
	if a.Miss || s.onHit {
		return s.targets
	}
	return nil
}

func TestPrefetchTimeliness(t *testing.T) {
	// A prefetch issued at cycle 0 becomes usable PrefetchLatency later:
	// a demand arriving before that is a late hit, after that a full hit.
	mk := func(gap uint64) (hit, late bool) {
		cfg := smallConfig()
		cfg.PrefetchLatency = 200
		target := addr.PageNum(9).Block(1) // channel 0
		cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
			return &scriptedPrefetcher{targets: []addr.BlockNum{target}}
		}
		eng := New(cfg)
		tr := trace.Trace{
			{Addr: addr.PageNum(9).Block(0).Addr(), Cycle: 0}, // miss → triggers prefetch
			{Addr: target.Addr(), Cycle: gap},                 // probe
		}
		rep, err := eng.RunStream(tr.Stream(), "tl")
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cache.DemandHits == 1, rep.LatePrefetchHits == 1
	}
	if hit, late := mk(100); hit || !late {
		t.Fatalf("gap 100: hit=%v late=%v, want late prefetch", hit, late)
	}
	if hit, late := mk(500); !hit || late {
		t.Fatalf("gap 500: hit=%v late=%v, want full hit", hit, late)
	}
}

func TestLateWriteKeepsDirtyBit(t *testing.T) {
	cfg := smallConfig()
	cfg.PrefetchLatency = 200
	target := addr.PageNum(9).Block(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		return &scriptedPrefetcher{targets: []addr.BlockNum{target}}
	}
	eng := New(cfg)
	tr := trace.Trace{
		{Addr: addr.PageNum(9).Block(0).Addr(), Cycle: 0},
		{Addr: target.Addr(), Cycle: 100, Write: true}, // late write
	}
	// After the run, evicting the line must produce a writeback. Drive
	// eviction by filling the set; simplest check: run and inspect that
	// the line is dirty via a full engine pass that evicts everything.
	for i := 0; i < 3000; i++ {
		tr = append(tr, trace.Record{Addr: addr.BlockNum(i).Addr(), Cycle: uint64(1000 + i*50)})
	}
	rep, err := eng.RunStream(tr.Stream(), "lw")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cache.Writebacks == 0 {
		t.Fatal("late write lost its dirty bit (no writeback ever)")
	}
}

func TestPrefetchTrafficCounted(t *testing.T) {
	cfg := smallConfig()
	target := addr.PageNum(9).Block(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		return &scriptedPrefetcher{targets: []addr.BlockNum{target}}
	}
	eng := New(cfg)
	tr := trace.Trace{{Addr: addr.PageNum(9).Block(0).Addr(), Cycle: 0}}
	rep, err := eng.RunStream(tr.Stream(), "pt")
	if err != nil {
		t.Fatal(err)
	}
	if rep.DRAM.PrefReads != 1 {
		t.Fatalf("prefetch reads = %d, want 1", rep.DRAM.PrefReads)
	}
	if rep.Prefetch.Issued != 1 {
		t.Fatalf("queue issued = %d, want 1", rep.Prefetch.Issued)
	}
}

func TestMaxPerTriggerClamp(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxPerTrigger = 2
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		return prefetch.NewNextLine(8)
	}
	eng := New(cfg)
	tr := trace.Trace{{Addr: addr.PageNum(9).Block(0).Addr(), Cycle: 0}}
	rep, err := eng.RunStream(tr.Stream(), "clamp")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetch.Issued > 2 {
		t.Fatalf("issued %d > MaxPerTrigger 2", rep.Prefetch.Issued)
	}
	if rep.Prefetch.Dropped == 0 {
		t.Fatal("over-limit candidates not counted as dropped")
	}
}

func TestResidentTargetsFiltered(t *testing.T) {
	cfg := smallConfig()
	target := addr.PageNum(9).Block(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		return &scriptedPrefetcher{targets: []addr.BlockNum{target}, onHit: true}
	}
	eng := New(cfg)
	tr := trace.Trace{
		{Addr: target.Addr(), Cycle: 0},   // miss fills the target itself
		{Addr: target.Addr(), Cycle: 500}, // hit; prefetcher proposes resident block
	}
	rep, err := eng.RunStream(tr.Stream(), "resfilter")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetch.Filtered == 0 {
		t.Fatal("resident prefetch target not filtered")
	}
}

// TestIssueFilter pins how a unit counts the candidates of its triggers: a
// block proposed twice in one trigger, or again while its fill is in
// flight, is filtered; and with MaxPerTrigger above the 64-entry prefetch
// queue, the queue bounds what one trigger issues.
func TestIssueFilter(t *testing.T) {
	x := addr.PageNum(9).Block(1) // channel 0
	var eighty []addr.BlockNum    // distinct channel-0 blocks
	for p := addr.PageNum(100); p < 105; p++ {
		for off := 0; off < addr.SegmentBlocks; off++ {
			eighty = append(eighty, p.Block(off))
		}
	}
	cases := []struct {
		name          string
		targets       []addr.BlockNum
		maxPerTrigger int
		misses        int // triggering demand misses, 100 cycles apart
		want          prefetch.Stats
	}{
		{"duplicate in one trigger", []addr.BlockNum{x, x}, 16, 1,
			prefetch.Stats{Candidates: 2, Filtered: 1, Issued: 1}},
		{"in flight from an earlier trigger", []addr.BlockNum{x}, 16, 2,
			prefetch.Stats{Candidates: 2, Filtered: 1, Issued: 1}},
		{"queue full", eighty, 100, 1,
			prefetch.Stats{Candidates: 80, Issued: 64, Dropped: 16}},
	}
	for _, c := range cases {
		cfg := smallConfig()
		cfg.PrefetchLatency = 1000 // no fill lands before the last trigger
		cfg.MaxPerTrigger = c.maxPerTrigger
		cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
			return &scriptedPrefetcher{targets: c.targets}
		}
		var tr trace.Trace
		for i := 0; i < c.misses; i++ {
			tr = append(tr, trace.Record{Addr: addr.PageNum(9).Block(2 + i).Addr(), Cycle: uint64(i * 100)})
		}
		rep, err := New(cfg).RunStream(tr.Stream(), "filter")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rep.Prefetch != c.want || rep.DRAM.PrefReads != c.want.Issued {
			t.Errorf("%s: stats %+v, %d DRAM prefetch reads; want %+v, %d",
				c.name, rep.Prefetch, rep.DRAM.PrefReads, c.want, c.want.Issued)
		}
	}
}

// crossChannelPrefetcher maliciously targets a block on another channel.
type crossChannelPrefetcher struct{}

func (crossChannelPrefetcher) Name() string          { return "evil" }
func (crossChannelPrefetcher) Train(prefetch.Access) {}
func (crossChannelPrefetcher) StorageBits() int      { return 0 }
func (crossChannelPrefetcher) Reset()                {}
func (crossChannelPrefetcher) Issue(a prefetch.Access) []addr.BlockNum {
	if !a.Miss {
		return nil
	}
	// Same page, next segment: a different channel.
	off := (a.Block.Offset() + addr.SegmentBlocks) % addr.BlocksPerPage
	return []addr.BlockNum{a.Block.Page().Block(off)}
}

func TestForeignChannelTargetsDropped(t *testing.T) {
	cfg := smallConfig()
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return crossChannelPrefetcher{} }
	eng := New(cfg)
	tr := trace.Trace{{Addr: addr.PageNum(3).Block(0).Addr(), Cycle: 0}}
	rep, err := eng.RunStream(tr.Stream(), "evil")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Prefetch.Issued != 0 {
		t.Fatalf("foreign-channel prefetch issued (%d)", rep.Prefetch.Issued)
	}
	if rep.Prefetch.Dropped != 1 {
		t.Fatalf("foreign target not counted as dropped: %+v", rep.Prefetch)
	}
	if rep.DRAM.PrefReads != 0 {
		t.Fatal("foreign prefetch reached DRAM")
	}
}

func TestChannelRouting(t *testing.T) {
	eng := New(smallConfig())
	// One access per channel segment of one page.
	p := addr.PageNum(7)
	tr := trace.Trace{
		{Addr: p.Block(0).Addr(), Cycle: 0},
		{Addr: p.Block(16).Addr(), Cycle: 50},
		{Addr: p.Block(32).Addr(), Cycle: 100},
		{Addr: p.Block(48).Addr(), Cycle: 150},
	}
	rep, err := eng.RunStream(tr.Stream(), "route")
	if err != nil {
		t.Fatal(err)
	}
	// Each channel saw exactly one demand read.
	for ch := 0; ch < addr.Channels; ch++ {
		if got := eng.DRAM(ch).Stats().DemandReads; got != 1 {
			t.Fatalf("channel %d demand reads = %d, want 1", ch, got)
		}
	}
	if rep.DemandReads != 4 {
		t.Fatalf("total demand reads %d", rep.DemandReads)
	}
}

// TestSubShardsAboveOneRefused pins the deprecated Config.SubShards: 0 and
// 1 build the one-unit-per-channel engine, and any larger value panics
// instead of being ignored.
func TestSubShardsAboveOneRefused(t *testing.T) {
	for _, c := range []struct {
		subShards int
		panics    bool
	}{{0, false}, {1, false}, {2, true}, {8, true}} {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panics {
					t.Errorf("SubShards %d: panicked %v, want %v", c.subShards, got, c.panics)
				}
			}()
			cfg := smallConfig()
			cfg.SubShards = c.subShards
			New(cfg)
		}()
	}
}

func TestNamedPrefetcherAll(t *testing.T) {
	for _, name := range PrefetcherNames() {
		f, err := NamedPrefetcher(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pf := f(0)
		if pf == nil {
			t.Fatalf("%s: nil prefetcher", name)
		}
		// Names round-trip loosely: factories for variants embed the base name.
		if pf.Name() == "" {
			t.Fatalf("%s: empty name", name)
		}
	}
	if _, err := NamedPrefetcher("magic"); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

func TestResetStatsDiscardsWarmup(t *testing.T) {
	eng := New(smallConfig())
	p := addr.PageNum(42)
	warm := visitTrace([]addr.PageNum{p}, []int{0, 1, 2, 3}, 100)
	for _, rec := range warm {
		if err := eng.Step(rec); err != nil {
			t.Fatal(err)
		}
	}
	eng.ResetStats()
	// Post-warmup: the same blocks now hit a warm cache.
	for i, rec := range warm {
		rec.Cycle += 10_000 + uint64(i*100)
		if err := eng.Step(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep := eng.Finish("warm")
	if rep.Cache.DemandMisses != 0 || rep.Cache.DemandHits != 4 {
		t.Fatalf("warmup not discarded: hits/misses %d/%d", rep.Cache.DemandHits, rep.Cache.DemandMisses)
	}
	if rep.HitRate() != 1 {
		t.Fatalf("post-warmup hit rate %v", rep.HitRate())
	}
	// Wall-clock baseline restarts at the reset point.
	if rep.Cycles > 11_000 {
		t.Fatalf("cycles %d include the warmup span", rep.Cycles)
	}
}

func TestOutOfOrderTraceRejected(t *testing.T) {
	eng := New(smallConfig())
	// Two accesses to the same channel with decreasing cycles: Step must
	// refuse the second with an error, not corrupt the model.
	b := addr.PageNum(1).Block(0)
	if err := eng.Step(trace.Record{Addr: b.Addr(), Cycle: 1000}); err != nil {
		t.Fatal(err)
	}
	err := eng.Step(trace.Record{Addr: (b + 1).Addr(), Cycle: 10})
	if err == nil {
		t.Fatal("out-of-order trace accepted")
	}
}

// TestBackwardCycleRefusedAtEntry: a record whose cycle goes backwards is
// refused where it enters the engine, even when it hits in the SC and so
// never meets DRAM's own order check. Both drivers blame that record and
// return a partial report of the records before it.
func TestBackwardCycleRefusedAtEntry(t *testing.T) {
	b := addr.PageNum(1).Block(0).Addr()
	tr := trace.Trace{{Addr: b, Cycle: 1000}, {Addr: b, Cycle: 10}, {Addr: b, Cycle: 2000}}
	for _, par := range []bool{false, true} {
		cfg := smallConfig()
		cfg.ParallelChannels = par
		rep, err := New(cfg).RunStream(tr.Stream(), "backwards")
		if err == nil {
			t.Fatalf("parallel=%v: a trace whose cycles go backwards ran", par)
		}
		if !rep.Truncated || rep.FailedAt != 1 || rep.DemandReads != 1 {
			t.Fatalf("parallel=%v: Truncated %v, FailedAt %d, %d demand reads; want true, 1, 1",
				par, rep.Truncated, rep.FailedAt, rep.DemandReads)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := smallConfig()
		cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return core.New(core.DefaultConfig()) }
		eng := New(cfg)
		var tr trace.Trace
		for i := 0; i < 2000; i++ {
			p := addr.PageNum(i * 7919 % 97)
			tr = append(tr, trace.Record{Addr: p.Block(i % 64).Addr(), Cycle: uint64(i * 17), Write: i%5 == 0})
		}
		rep, err := eng.RunStream(tr.Stream(), "det")
		if err != nil {
			t.Fatal(err)
		}
		return rep.AMAT
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic AMAT: %v vs %v", a, b)
	}
}

func TestEnergyAccounted(t *testing.T) {
	eng := New(smallConfig())
	tr := visitTrace([]addr.PageNum{1, 2, 3, 4}, []int{0, 1, 2}, 50)
	rep, err := eng.RunStream(tr.Stream(), "e")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy.Total() <= 0 {
		t.Fatal("no energy accounted")
	}
	if rep.Energy.Background <= 0 || rep.Energy.Read <= 0 {
		t.Fatalf("breakdown %+v missing components", rep.Energy)
	}
}

func TestPlanariaEndToEndCoverage(t *testing.T) {
	// End-to-end: revisit a page after the SLP timeout; the second visit
	// must be mostly covered by prefetches.
	cfg := smallConfig()
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		c := core.DefaultConfig()
		c.SLP.Timeout = 1000
		return core.New(c)
	}
	eng := New(cfg)
	p := addr.PageNum(5)
	offs := []int{0, 1, 2, 3, 4} // five blocks in channel 0's segment
	var tr trace.Trace
	cycle := uint64(0)
	for _, o := range offs {
		tr = append(tr, trace.Record{Addr: p.Block(o).Addr(), Cycle: cycle})
		cycle += 40
	}
	// Sweep traffic on other pages to expire the AT entry and evict page
	// 5 from the tiny cache.
	for i := 0; i < 600; i++ {
		cycle += 40
		tr = append(tr, trace.Record{Addr: addr.PageNum(100 + i).Block(i % 5).Addr(), Cycle: cycle})
	}
	// Revisit.
	first := true
	for _, o := range offs {
		cycle += 400
		tr = append(tr, trace.Record{Addr: p.Block(o).Addr(), Cycle: cycle})
		_ = first
	}
	rep, err := eng.RunStream(tr.Stream(), "e2e")
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Cache.UsefulPrefetches + rep.LatePrefetchHits; got < 3 {
		t.Fatalf("revisit coverage: %d useful prefetches, want >= 3 (issued %d)",
			got, rep.Prefetch.Issued)
	}
}
