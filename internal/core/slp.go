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
	"repro/internal/hashidx"
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

type ftEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
}

type atEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
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
	ft     []ftEntry
	at     []atEntry
	pt     []ptEntry
	ptMask uint64
	sweep  int // round-robin AT timeout scan position

	// Software indices emulating the hardware CAM lookups in O(1). The FT
	// and AT entry arrays above are the pre-allocated slabs; these
	// open-addressing indices (allocation-free under churn, unlike Go
	// maps) find a page's slab slot, so a warm SLP never allocates.
	ftIdx *hashidx.U64
	atIdx *hashidx.U64

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

// NewSLP builds an SLP instance.
func NewSLP(cfg SLPConfig) *SLP {
	if cfg.FTEntries <= 0 {
		cfg.FTEntries = 64
	}
	if cfg.ATEntries <= 0 {
		cfg.ATEntries = 128
	}
	if cfg.PTEntries <= 0 {
		cfg.PTEntries = 16384
	}
	n := 1
	for n < cfg.PTEntries {
		n <<= 1
	}
	cfg.PTEntries = n
	if cfg.FTPromote <= 0 {
		cfg.FTPromote = 3
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 50000
	}
	return &SLP{
		cfg:    cfg,
		ft:     make([]ftEntry, cfg.FTEntries),
		at:     make([]atEntry, cfg.ATEntries),
		pt:     make([]ptEntry, n),
		ptMask: uint64(n - 1),
		ftIdx:  hashidx.New(cfg.FTEntries),
		atIdx:  hashidx.New(cfg.ATEntries),
	}
}

// Name implements prefetch.Prefetcher.
func (s *SLP) Name() string { return "slp" }

// Reset implements prefetch.Prefetcher.
func (s *SLP) Reset() {
	for i := range s.ft {
		s.ft[i] = ftEntry{}
	}
	for i := range s.at {
		s.at[i] = atEntry{}
	}
	for i := range s.pt {
		s.pt[i] = ptEntry{}
	}
	s.sweep, s.promotions, s.snapshots, s.issues = 0, 0, 0, 0
	s.ftIdx.Reset()
	s.atIdx.Reset()
}

// Train implements prefetch.Prefetcher (the SLP learning phase).
func (s *SLP) Train(a prefetch.Access) {
	s.expire(a.Cycle)
	p := a.Page()
	off := a.Block.SegOffset()

	// Step 1: accumulate into an existing AT entry.
	if i, ok := s.atIdx.Get(uint64(p)); ok {
		e := &s.at[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		return
	}

	// Step 2/3: filter table.
	if i, ok := s.ftIdx.Get(uint64(p)); ok {
		e := &s.ft[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		if e.bits.Count() >= s.cfg.FTPromote {
			s.promote(int(i), a.Cycle)
		}
		return
	}
	ftIdx := -1
	for i := range s.ft {
		if !s.ft[i].valid {
			ftIdx = i
			break
		}
	}
	if ftIdx == -1 {
		// Evict the stalest FT entry; sub-threshold snapshots are
		// dropped (that is the FT's filtering job).
		ftIdx = 0
		for i := 1; i < len(s.ft); i++ {
			if s.ft[i].last < s.ft[ftIdx].last {
				ftIdx = i
			}
		}
		s.ftIdx.Delete(uint64(s.ft[ftIdx].page))
	}
	s.ft[ftIdx] = ftEntry{page: p, bits: bitmap.Seg16(0).Set(off), last: a.Cycle, valid: true}
	s.ftIdx.Put(uint64(p), int32(ftIdx))
}

// promote moves FT entry i into the AT (step 3), evicting the stalest AT
// entry into PT if the AT is full.
func (s *SLP) promote(i int, now uint64) {
	f := s.ft[i]
	s.ft[i] = ftEntry{}
	s.ftIdx.Delete(uint64(f.page))
	s.promotions++
	if s.sink != nil {
		s.sink.Emit(events.Event{
			Kind: events.KindSLPPromote, Cycle: now, Aux: uint64(f.page),
			Origin: events.OriginSLP, N: uint16(f.bits.Count()),
		})
	}
	atIdx := -1
	for j := range s.at {
		if !s.at[j].valid {
			atIdx = j
			break
		}
	}
	if atIdx == -1 {
		atIdx = 0
		for j := 1; j < len(s.at); j++ {
			if s.at[j].last < s.at[atIdx].last {
				atIdx = j
			}
		}
		s.capture(s.at[atIdx])
		s.atIdx.Delete(uint64(s.at[atIdx].page))
	}
	s.at[atIdx] = atEntry{page: f.page, bits: f.bits, last: now, valid: true}
	s.atIdx.Put(uint64(f.page), int32(atIdx))
}

// expire scans a few AT entries per call (a hardware-realistic round-robin
// sweep) and retires timed-out snapshots into PT (step 4).
func (s *SLP) expire(now uint64) {
	const perCall = 4
	for k := 0; k < perCall; k++ {
		e := &s.at[s.sweep]
		if s.sweep++; s.sweep == len(s.at) {
			s.sweep = 0
		}
		if e.valid && now > e.last && now-e.last > s.cfg.Timeout {
			s.capture(*e)
			s.atIdx.Delete(uint64(e.page))
			*e = atEntry{}
		}
	}
}

// capture writes a completed snapshot into the PT (step 4).
func (s *SLP) capture(e atEntry) {
	if !e.valid || e.bits.Count() == 0 {
		return
	}
	s.snapshots++
	idx := uint64(e.page) & s.ptMask
	s.pt[idx] = ptEntry{tag: uint64(e.page), bits: e.bits, valid: true}
	if s.sink != nil {
		s.sink.Emit(events.Event{
			Kind: events.KindSLPSnapshot, Cycle: e.last, Aux: uint64(e.page),
			Origin: events.OriginSLP, N: uint16(e.bits.Count()),
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
	return len(s.ft)*(36+16+16+1) +
		len(s.at)*(36+16+16+1) +
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
