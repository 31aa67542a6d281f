// Package core implements the Planaria paper's contribution: the
// Self-Learning directed Prefetcher (SLP, Section 3), the Transfer-Learning
// directed Prefetcher (TLP, Section 4) and the coordinator that composes
// them with decoupled learning and issuing phases (Section 2).
//
// One instance of each serves one DRAM channel and therefore works on
// 16-block page segments, exactly as in the paper's four-channel system.
package core

import (
	"math/bits"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/prefetch"
)

// SLPConfig sizes the three SLP tables and the accumulation timeout.
type SLPConfig struct {
	FTEntries int    // filter table entries
	ATEntries int    // accumulation table entries
	PTEntries int    // pattern history table entries (power of two)
	FTPromote int    // distinct offsets before FT→AT promotion (paper: 3)
	Timeout   uint64 // idle cycles before an AT entry is deemed a complete snapshot
}

// DefaultSLPConfig matches the storage budget reported in the paper
// (345.2 KB across four channels, dominated by the pattern history table).
func DefaultSLPConfig() SLPConfig {
	return SLPConfig{FTEntries: 64, ATEntries: 128, PTEntries: 16384, FTPromote: 3, Timeout: 50000}
}

type ptEntry struct {
	tag   uint64
	bits  bitmap.Seg16
	valid bool
}

// SLP is the self-learning (intra-page) sub-prefetcher for one channel.
//
// Flow per the paper's Figure 1: a demand access first checks the
// Accumulation Table (AT, step 1); on an AT miss it goes to the Filter Table
// (FT, step 2), which weeds out pages that never accumulate three distinct
// blocks; an FT entry reaching three offsets is promoted into AT (step 3);
// an AT entry that times out is interpreted as a complete, stable footprint
// snapshot and written to the Pattern History Table (PT, step 4); a demand
// miss whose page hits in PT triggers prefetches for the rest of the
// snapshot (step 5). The page number is the only signature — no PC.
type SLP struct {
	cfg    SLPConfig
	ft, at pageTable
	pt     []ptEntry
	ptMask uint64
	sweep  int // round-robin AT timeout scan position

	// statistics
	promotions uint64 // FT→AT
	snapshots  uint64 // AT→PT
	issues     uint64 // Issue calls that produced prefetches

	// sink receives learning-milestone events (FT→AT promotions and
	// AT→PT snapshot captures); nil when tracing is disabled.
	sink events.Sink
}

// SetEventSink installs the decision-event sink (nil disables tracing).
func (s *SLP) SetEventSink(sk events.Sink) { s.sink = sk }

// NewSLP builds an SLP instance; start cfg from DefaultSLPConfig.
func NewSLP(cfg SLPConfig) *SLP {
	n := 1
	for n < cfg.PTEntries {
		n <<= 1
	}
	cfg.PTEntries = n
	arena := newPageArena(cfg.FTEntries, cfg.ATEntries)
	return &SLP{
		cfg:    cfg,
		ft:     arena.table(cfg.FTEntries),
		at:     arena.table(cfg.ATEntries),
		pt:     make([]ptEntry, n),
		ptMask: uint64(n - 1),
	}
}

// Name implements prefetch.Prefetcher.
func (s *SLP) Name() string { return "slp" }

// Reset implements prefetch.Prefetcher.
func (s *SLP) Reset() {
	s.ft.reset()
	s.at.reset()
	clear(s.pt)
	s.sweep, s.promotions, s.snapshots, s.issues = 0, 0, 0, 0
}

// Train implements prefetch.Prefetcher (the SLP learning phase).
func (s *SLP) Train(a prefetch.Access) {
	s.expire(a.Cycle)
	p := uint64(a.Page())
	off := a.Block.SegOffset()

	// Step 1: accumulate into an existing AT entry.
	if i, ok := s.at.idx.Get(p); ok {
		s.at.touch(int(i), off, a.Cycle)
		return
	}

	// Step 2/3: filter table.
	if i, ok := s.ft.idx.Get(p); ok {
		s.ft.touch(int(i), off, a.Cycle)
		if s.ft.bits[i].Count() >= s.cfg.FTPromote {
			s.promote(int(i), a.Cycle)
		}
		return
	}
	// A full FT evicts its stalest entry; sub-threshold snapshots are
	// dropped (that is the FT's filtering job).
	i, _ := s.ft.slot()
	s.ft.put(i, p, bitmap.Seg16(0).Set(off), a.Cycle)
}

// promote moves FT entry i into the AT (step 3), evicting the stalest AT
// entry into PT if the AT is full.
func (s *SLP) promote(i int, now uint64) {
	p, b := s.ft.pages[i], s.ft.bits[i]
	s.ft.drop(i)
	s.promotions++
	if s.sink != nil {
		s.sink.Emit(events.Event{
			Kind: events.KindSLPPromote, Cycle: now, Aux: p,
			Origin: events.OriginSLP, N: uint16(b.Count()),
		})
	}
	j, evict := s.at.slot()
	if evict {
		s.capture(j)
	}
	s.at.put(j, p, b, now)
}

// expire scans a few AT entries per call (a hardware-realistic round-robin
// sweep) and retires timed-out snapshots into PT (step 4).
func (s *SLP) expire(now uint64) {
	const perCall = 4
	for k := 0; k < perCall; k++ {
		i := s.sweep
		if s.sweep++; s.sweep == len(s.at.pages) {
			s.sweep = 0
		}
		if s.at.live(i) && now > s.at.last[i] && now-s.at.last[i] > s.cfg.Timeout {
			s.capture(i)
			s.at.drop(i)
		}
	}
}

// capture writes the snapshot of live AT slot i into the PT (step 4). AT
// entries come from FT promotions, so every snapshot has at least one bit.
func (s *SLP) capture(i int) {
	p, b := s.at.pages[i], s.at.bits[i]
	s.snapshots++
	s.pt[p&s.ptMask] = ptEntry{tag: p, bits: b, valid: true}
	if s.sink != nil {
		s.sink.Emit(events.Event{
			Kind: events.KindSLPSnapshot, Cycle: s.at.last[i], Aux: p,
			Origin: events.OriginSLP, N: uint16(b.Count()),
		})
	}
}

// Pattern returns the recorded snapshot for page p, if any (exported for the
// coordinator's metadata probe and for tests).
func (s *SLP) Pattern(p addr.PageNum) (bitmap.Seg16, bool) {
	e := s.pt[uint64(p)&s.ptMask]
	if e.valid && e.tag == uint64(p) {
		return e.bits, true
	}
	return 0, false
}

// Issue implements prefetch.Prefetcher (the SLP issuing phase, step 5):
// on a demand miss to a page with a recorded snapshot, prefetch every other
// block of the snapshot.
func (s *SLP) Issue(a prefetch.Access) []addr.BlockNum {
	return s.IssueTo(a, nil)
}

// IssueTo implements prefetch.BufferedIssuer: Issue appending into the
// caller's buffer, iterating the snapshot bitmap directly (no Offsets
// slice) so a warm SLP issues without allocating.
func (s *SLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	pat, ok := s.Pattern(p)
	if !ok {
		return dst
	}
	// Even when the trigger lies outside the learned snapshot we still
	// prefetch the snapshot: the paper's overlap experiment (Figure 4)
	// shows footprints stay stable across phases.
	rest := pat.Clear(a.Block.SegOffset())
	if rest == 0 {
		return dst
	}
	ch := a.Block.Channel()
	for v := uint16(rest); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, bits.TrailingZeros16(v))))
	}
	s.issues++
	return dst
}

// HasMetadata reports whether SLP could issue for page p — the coordinator's
// selection rule (enable TLP only when SLP has no history for the page).
func (s *SLP) HasMetadata(p addr.PageNum) bool {
	_, ok := s.Pattern(p)
	return ok
}

// StorageBits implements prefetch.Prefetcher.
// FT entry: page tag 36 + bitmap 16 + time 16 + valid 1.
// AT entry: page tag 36 + bitmap 16 + time 16 + valid 1.
// PT entry: tag (page bits above index) 36−log2(PT) + bitmap 16 + valid 1.
func (s *SLP) StorageBits() int {
	ptTag := 36 - log2(uint64(len(s.pt)))
	if ptTag < 0 {
		ptTag = 0
	}
	return len(s.ft.pages)*(36+16+16+1) +
		len(s.at.pages)*(36+16+16+1) +
		len(s.pt)*(ptTag+16+1)
}

// Counters returns internal event counters (promotions, snapshots, issues).
func (s *SLP) Counters() (promotions, snapshots, issues uint64) {
	return s.promotions, s.snapshots, s.issues
}

func log2(v uint64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
