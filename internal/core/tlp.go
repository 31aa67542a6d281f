package core

import (
	"math/bits"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/hashidx"
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

	// The RPT as struct-of-arrays lanes: slot i holds pages[i], its
	// footprint bits[i] and the cycle of its last access last[i]. Slots fill
	// in order and only Reset empties them, so slot i is valid iff i < used.
	pages []addr.PageNum
	bits  []bitmap.Seg16
	last  []uint64
	used  int
	// idx is the page → RPT-slot index; open addressing keeps the lookup
	// allocation-free under entry churn.
	idx *hashidx.U64

	issues uint64

	// sink receives neighbour-match events; nil when tracing is disabled.
	sink events.Sink
}

// SetEventSink installs the decision-event sink (nil disables tracing).
func (t *TLP) SetEventSink(sk events.Sink) { t.sink = sk }

// NewTLP builds a TLP instance. Zero (or negative) fields take their
// DefaultTLPConfig values.
func NewTLP(cfg TLPConfig) *TLP {
	def := DefaultTLPConfig()
	if cfg.RPTEntries <= 0 {
		cfg.RPTEntries = def.RPTEntries
	}
	if cfg.DistThreshold == 0 {
		cfg.DistThreshold = def.DistThreshold
	}
	if cfg.MinCommon <= 0 {
		cfg.MinCommon = def.MinCommon
	}
	n := cfg.RPTEntries
	return &TLP{
		cfg:    cfg,
		window: min(cfg.DistThreshold, maxWindow),
		pages:  make([]addr.PageNum, n),
		bits:   make([]bitmap.Seg16, n),
		last:   make([]uint64, n),
		idx:    hashidx.New(n),
	}
}

// Name implements prefetch.Prefetcher.
func (t *TLP) Name() string { return "tlp" }

// Reset implements prefetch.Prefetcher.
func (t *TLP) Reset() {
	t.used, t.issues = 0, 0 // allocation overwrites every lane of a reused slot
	t.idx.Reset()
}

// Train implements prefetch.Prefetcher (the TLP learning phase): record the
// block in the page's RPT footprint, allocating an entry on first sight.
func (t *TLP) Train(a prefetch.Access) {
	p := a.Page()
	off := a.Block.SegOffset()
	if i, ok := t.idx.Get(uint64(p)); ok {
		t.bits[i] = t.bits[i].Set(off)
		t.last[i] = a.Cycle
		return
	}
	i := t.allocate()
	t.pages[i] = p
	t.bits[i] = bitmap.Seg16(0).Set(off)
	t.last[i] = a.Cycle
	t.idx.Put(uint64(p), int32(i))
}

// allocate returns the RPT slot for a new page: the next unused slot while
// the table fills, otherwise the least recently used (lowest index on ties),
// whose page it unindexes.
func (t *TLP) allocate() int {
	if t.used < len(t.pages) {
		t.used++
		return t.used - 1
	}
	lru := 0
	for i, l := range t.last {
		if l < t.last[lru] {
			lru = i
		}
	}
	t.idx.Delete(uint64(t.pages[lru]))
	return lru
}

// BestNeighbor returns the most similar flagged neighbour entry of page p
// and the blocks it would transfer (neighbour minus self), or ok=false.
func (t *TLP) BestNeighbor(p addr.PageNum) (neighbor addr.PageNum, transfer bitmap.Seg16, ok bool) {
	i, exists := t.idx.Get(uint64(p))
	if !exists {
		return 0, 0, false
	}
	self := t.bits[i]
	// Ref(p, q) ⇔ |p−q| ≤ window ⇔ q − (p−window) ≤ 2·window in wrapping
	// unsigned arithmetic, exact while pages < 2^58 and window ≤ 2^62.
	lo, span := uint64(p)-t.window, 2*t.window
	best, bestCommon := -1, t.cfg.MinCommon-1
	for j, q := range t.pages[:t.used] {
		if uint64(q)-lo > span || j == int(i) {
			continue
		}
		if c := self.Common(t.bits[j]); c > bestCommon {
			bestCommon = c
			best = j
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	tr := t.bits[best].Minus(self)
	if tr == 0 {
		return 0, 0, false
	}
	return t.pages[best], tr, true
}

// Issue implements prefetch.Prefetcher (the TLP issuing phase): on a demand
// miss, transfer the best neighbour's surplus footprint onto this page.
func (t *TLP) Issue(a prefetch.Access) []addr.BlockNum {
	return t.IssueTo(a, nil)
}

// IssueTo implements prefetch.BufferedIssuer: Issue appending into the
// caller's buffer, iterating the transfer bitmap directly (no Offsets
// slice) so a warm TLP issues without allocating.
func (t *TLP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	neighbor, transfer, ok := t.BestNeighbor(p)
	if !ok {
		return dst
	}
	ch := a.Block.Channel()
	for v := uint16(transfer); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, bits.TrailingZeros16(v))))
	}
	t.issues++
	if t.sink != nil {
		t.sink.Emit(events.Event{
			Kind: events.KindTLPNeighbor, Cycle: a.Cycle, Block: a.Block,
			Aux: uint64(neighbor), Origin: events.OriginTLP, N: uint16(transfer.Count()),
		})
	}
	return dst
}

// Issues returns the number of Issue calls that produced prefetches.
func (t *TLP) Issues() uint64 { return t.issues }

// StorageBits implements prefetch.Prefetcher: each RPT entry holds a page
// tag (36 b), a 16-bit bitmap, a 16-bit timestamp, a valid bit and N−1
// useful Ref bits (Section 4.2). The simulator derives the Ref bits from
// the tags, but the modelled hardware stores them, so they count here.
func (t *TLP) StorageBits() int {
	n := len(t.pages)
	return n * (36 + 16 + 16 + 1 + (n - 1))
}
