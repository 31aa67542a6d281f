package core

import (
	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/prefetch"
)

// TLPConfig parameterises the transfer-learning sub-prefetcher.
type TLPConfig struct {
	RPTEntries    int    // Recent Page Table entries (paper: 128)
	DistThreshold uint64 // max page-number distance for a learnable neighbour (paper: 64)
	MinCommon     int    // min common bits before a neighbour pattern is trusted (paper example: 4)
}

// DefaultTLPConfig matches Section 4.2.
func DefaultTLPConfig() TLPConfig {
	return TLPConfig{RPTEntries: 128, DistThreshold: 64, MinCommon: 4}
}

// maxWindow caps DistThreshold: pages (BlockNum >> 6) stay below 2^58, so a
// larger threshold admits the same neighbours, and 2×maxWindow cannot overflow.
const maxWindow = 1 << 62

// TLP is the transfer-learning (inter-page) sub-prefetcher for one channel.
//
// Its Recent Page Table (RPT) keeps the footprints of recently observed
// pages. Each entry carries one "Ref" bit per other entry, set when the two
// pages are close in page-number space (within DistThreshold). When a page
// with little history of its own misses, TLP finds its most similar flagged
// neighbour — largest count of common footprint bits, at least MinCommon —
// and prefetches the blocks the neighbour accessed that this page has not.
//
// A Ref bit is a pure function of the two entries' page tags, so the
// simulator derives it in BestNeighbor instead of storing the N×N matrix;
// the modelled hardware still holds the bits (see StorageBits).
//
// Note: the paper's prose inverts the Ref polarity in one sentence
// ("difference ... larger than a threshold" → set 1); every other part of
// Section 4 requires neighbours to be close, so Ref here means "within the
// distance threshold" (see DESIGN.md).
type TLP struct {
	cfg    TLPConfig
	window uint64 // DistThreshold capped at maxWindow

	// rpt is the Recent Page Table. A new page takes the first free slot,
	// and only Reset frees slots, so slot i is valid iff i < used.
	rpt  pageTable
	used int

	issues uint64

	// sink receives neighbour-match events; nil when tracing is disabled.
	sink events.Sink
}

// SetEventSink installs the decision-event sink (nil disables tracing).
func (t *TLP) SetEventSink(sk events.Sink) { t.sink = sk }

// NewTLP builds a TLP instance; start cfg from DefaultTLPConfig.
func NewTLP(cfg TLPConfig) *TLP {
	arena := newPageArena(cfg.RPTEntries)
	return &TLP{
		cfg:    cfg,
		window: min(cfg.DistThreshold, maxWindow),
		rpt:    arena.table(cfg.RPTEntries),
	}
}

// Name implements prefetch.Prefetcher.
func (t *TLP) Name() string { return "tlp" }

// Reset implements prefetch.Prefetcher.
func (t *TLP) Reset() {
	t.used, t.issues = 0, 0
	t.rpt.reset()
}

// Train implements prefetch.Prefetcher (the TLP learning phase): record the
// block in the page's RPT footprint, allocating an entry on first sight.
func (t *TLP) Train(a prefetch.Access) {
	p := uint64(a.Page())
	off := a.Block.SegOffset()
	if i, ok := t.rpt.idx.Get(p); ok {
		t.rpt.touch(int(i), off, a.Cycle)
		return
	}
	// A full RPT evicts its least recently used entry.
	i, evict := t.rpt.slot()
	if !evict {
		t.used++
	}
	t.rpt.put(i, p, bitmap.Seg16(0).Set(off), a.Cycle)
}

// BestNeighbor returns the most similar flagged neighbour entry of page p
// and the blocks it would transfer (neighbour minus self), or ok=false.
//
// A neighbour shares at most popcount(self) bits with p, which gives the
// scan two exact exits: a page with fewer than MinCommon bits has no
// neighbour, and a neighbour sharing every bit of self cannot be beaten by
// a later slot under the strict ">".
func (t *TLP) BestNeighbor(p addr.PageNum) (neighbor addr.PageNum, transfer bitmap.Seg16, ok bool) {
	i, exists := t.rpt.idx.Get(uint64(p))
	if !exists {
		return 0, 0, false
	}
	self := t.rpt.bits[i]
	all := self.Count()
	if all < t.cfg.MinCommon {
		return 0, 0, false
	}
	// Ref(p, q) ⇔ |p−q| ≤ window ⇔ q − (p−window) ≤ 2·window in wrapping
	// unsigned arithmetic, exact while pages < 2^58 and window ≤ 2^62.
	lo, span := uint64(p)-t.window, 2*t.window
	best, bestCommon := -1, t.cfg.MinCommon-1
	for j, q := range t.rpt.pages[:t.used] {
		if q-lo > span || j == int(i) {
			continue
		}
		if c := self.Common(t.rpt.bits[j]); c > bestCommon {
			bestCommon = c
			best = j
			if c == all {
				break
			}
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	tr := t.rpt.bits[best].Minus(self)
	if tr == 0 {
		return 0, 0, false
	}
	return addr.PageNum(t.rpt.pages[best]), tr, true
}

// Issue implements prefetch.Prefetcher (the TLP issuing phase): on a demand
// miss, transfer the best neighbour's surplus footprint onto this page.
func (t *TLP) Issue(a prefetch.Access) []addr.BlockNum {
	return t.IssueTo(a, nil)
}

// IssueTo implements prefetch.Prefetcher: Issue appending into the caller's
// buffer, so a warm TLP issues without allocating.
func (t *TLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	neighbor, transfer, ok := t.BestNeighbor(a.Page())
	if !ok {
		return dst
	}
	dst = appendSegment(dst, a.Block, transfer)
	t.issued(a, neighbor, transfer)
	return dst
}

// issued counts an issue for the miss a that transfers offsets from
// neighbor, and emits its neighbour-match event.
func (t *TLP) issued(a prefetch.Access, neighbor addr.PageNum, transfer bitmap.Seg16) {
	t.issues++
	if t.sink != nil {
		t.sink.Emit(events.Event{
			Kind: events.KindTLPNeighbor, Cycle: a.Cycle, Block: a.Block,
			Aux: uint64(neighbor), Origin: events.OriginTLP, N: uint16(transfer.Count()),
		})
	}
}

// Issues returns the number of triggers TLP answered with prefetches, here
// or by the coordinator.
func (t *TLP) Issues() uint64 { return t.issues }

// StorageBits implements prefetch.Prefetcher: each RPT entry holds a page
// tag (36 b), a 16-bit bitmap, a 16-bit timestamp, a valid bit and N−1
// useful Ref bits (Section 4.2). The simulator derives the Ref bits from
// the tags, but the modelled hardware stores them, so they count here.
func (t *TLP) StorageBits() int {
	n := len(t.rpt.pages)
	return n * (36 + 16 + 16 + 1 + (n - 1))
}
