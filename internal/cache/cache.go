// Package cache implements the system cache (SC) of the Planaria
// reproduction: a set-associative, write-back, write-allocate cache operating
// on 64-byte blocks. The paper's SC is 4 MB / 16-way, address-sliced across
// four DRAM channels, so the simulator instantiates one 1 MB Cache per
// channel.
//
// The cache tracks prefetched lines so the simulator can measure prefetch
// accuracy (useful vs. wasted prefetch fills) and pollution (demand lines
// evicted by prefetches). Three replacement policies are provided, both to
// serve the simulator and to back the paper's claim that replacement policy
// alone does not rescue SC performance.
//
// The storage layout is struct-of-arrays rather than a slice of line
// structs: the tag of every way lives in one contiguous packed lane
// ([]uint64) scanned by a branch-light unrolled loop, the valid/dirty/
// prefetched flags are per-set 64-bit way masks, and the cold per-line
// bytes (the LRU recency links or the RRIP predictions, and the prefetch
// origin) sit in parallel arrays that are touched only on a hit, a fill or
// an eviction. A demand access therefore reads exactly ways×8 bytes of tag
// lane plus one mask word — the whole probe for a 16-way set is two cache
// lines — instead of walking 40-byte line structs. See docs/PERFORMANCE.md,
// "Hot path anatomy".
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/addr"
)

// Policy selects the replacement policy.
type Policy int

// Replacement policies.
const (
	LRU Policy = iota
	SRRIP
	// DRRIP dynamically selects between SRRIP and bimodal insertion via
	// set dueling (Jaleel et al., ISCA 2010) — one of the
	// "state-of-the-art cache replacement policies" the paper's
	// introduction reports as insufficient for the SC.
	DRRIP
	Random
)

// String returns the policy mnemonic.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case SRRIP:
		return "srrip"
	case DRRIP:
		return "drrip"
	case Random:
		return "random"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return LRU, nil
	case "srrip":
		return SRRIP, nil
	case "drrip":
		return DRRIP, nil
	case "random":
		return Random, nil
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

// Policies lists the selectable replacement policies.
func Policies() []Policy { return []Policy{LRU, SRRIP, DRRIP, Random} }

// Config sizes a Cache.
type Config struct {
	SizeBytes int    // total capacity in bytes
	Ways      int    // associativity
	Policy    Policy // replacement policy
	Seed      int64  // RNG seed (Random policy only)
}

// DefaultConfig is one channel slice of the paper's SC: 1 MB, 16-way, LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 1 << 20, Ways: 16, Policy: LRU}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive size or ways: %+v", c)
	}
	if c.Ways > 64 {
		// The valid/dirty/prefetched flags are per-set 64-bit way masks.
		return fmt.Errorf("cache: associativity %d exceeds the 64-way mask limit", c.Ways)
	}
	blocks := c.SizeBytes / addr.BlockBytes
	if blocks == 0 || blocks%c.Ways != 0 {
		return fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, c.Ways)
	}
	sets := blocks / c.Ways
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	return nil
}

const maxRRPV = 3 // 2-bit SRRIP

// noWay ends an LRU recency list (ways are below 64).
const noWay = 0xFF

// Stats accumulates cache events. All counters are monotonically increasing.
type Stats struct {
	DemandAccesses   uint64 `json:"demand_accesses"`
	DemandHits       uint64 `json:"demand_hits"`
	DemandMisses     uint64 `json:"demand_misses"`
	PrefetchFills    uint64 `json:"prefetch_fills"`
	DemandFills      uint64 `json:"demand_fills"`
	UsefulPrefetches uint64 `json:"useful_prefetches"` // demand hit on a line filled by prefetch
	WastedPrefetches uint64 `json:"wasted_prefetches"` // prefetched line evicted before any demand hit
	Writebacks       uint64 `json:"writebacks"`        // dirty evictions
	Evictions        uint64 `json:"evictions"`
	PollutionEvicts  uint64 `json:"pollution_evicts"` // demand-resident line evicted to make room for a prefetch
}

// HitRate returns demand hits / demand accesses.
func (s Stats) HitRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(s.DemandAccesses)
}

// Accuracy returns useful prefetch fills / prefetch fills.
func (s Stats) Accuracy() float64 {
	if s.PrefetchFills == 0 {
		return 0
	}
	return float64(s.UsefulPrefetches) / float64(s.PrefetchFills)
}

// Cache is a single set-associative cache slice. It is not safe for
// concurrent use; the simulator drives each channel slice from one goroutine.
//
// State is held struct-of-arrays. Set s owns ways [s*ways, (s+1)*ways) of
// every per-line lane; the flag lanes hold one 64-bit way mask per set.
type Cache struct {
	cfg      Config
	ways     int
	nsets    int
	setMask  uint64
	tagShift uint // log2(set count), precomputed: tag = block >> tagShift
	rng      *rand.Rand
	stats    Stats

	// Hot lane: the packed tags of every way, plus the per-set validity
	// masks the scan filters against. These are the only words a miss
	// (the common probe outcome under cache-hostile traffic) ever reads.
	tags  []uint64 // len nsets*ways
	valid []uint64 // len nsets; bit w = way w holds a valid line

	// Warm flag lanes: touched on hits, fills and evictions only.
	dirty []uint64 // len nsets; bit w = way w is dirty
	pref  []uint64 // len nsets; bit w = way w is an un-demanded prefetch

	// Cold lanes, parallel to tags: replacement state and prefetch origin.
	rrpv   []uint8 // SRRIP/DRRIP re-reference predictions
	origin []uint8 // opaque caller origin tag of prefetched lines (0 = untagged)

	// LRU only: each set's valid ways form a doubly linked recency list.
	// older/newer hold a way's neighbours (set-relative way numbers, noWay
	// at the ends) and are parallel to tags; mru/lru hold each set's
	// newest and oldest way. A hit or a fill moves the way to the MRU end,
	// so the LRU end is the victim without a scan. nil under other
	// policies.
	older, newer []uint8
	mru, lru     []uint8

	// fillAt is the optional fill-timestamp lane behind the telemetry
	// first-use-gap histogram: nil unless EnableFillStamps was called (so
	// runs without telemetry allocate and touch nothing), it records the
	// simulation cycle a prefetched line was filled at (via StampFill —
	// the cache's own clock counts accesses, not cycles) until the line's
	// first demand use reads it back through FillStamp.
	fillAt []uint64

	// DRRIP set-dueling state: psel > 0 favours bimodal insertion,
	// ≤ 0 favours SRRIP insertion; brip counts fills for the 1-in-32
	// near insertions of the bimodal policy.
	psel int
	brip int
}

// New builds a cache; it panics on an invalid Config (a construction-time
// programming error, per the package contract).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	blocks := cfg.SizeBytes / addr.BlockBytes
	nsets := blocks / cfg.Ways
	c := &Cache{
		cfg:      cfg,
		ways:     cfg.Ways,
		nsets:    nsets,
		setMask:  uint64(nsets - 1),
		tagShift: uint(bits.TrailingZeros64(uint64(nsets))),
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	// Two backing allocations for the whole cache: one uint64 arena for
	// the tag lane and the three mask lanes, one uint8 arena for the byte
	// lanes. Keeps construction cost flat (the engine builds one cache per
	// channel per run) and the hot lanes contiguous.
	u64 := make([]uint64, blocks+3*nsets)
	c.tags, u64 = u64[:blocks:blocks], u64[blocks:]
	c.valid, u64 = u64[:nsets:nsets], u64[nsets:]
	c.dirty, u64 = u64[:nsets:nsets], u64[nsets:]
	c.pref = u64[:nsets:nsets]
	n8 := 2 * blocks
	if cfg.Policy == LRU {
		n8 += 2*blocks + 2*nsets
	}
	u8 := make([]uint8, n8)
	c.rrpv, u8 = u8[:blocks:blocks], u8[blocks:]
	c.origin, u8 = u8[:blocks:blocks], u8[blocks:]
	if cfg.Policy == LRU {
		c.older, u8 = u8[:blocks:blocks], u8[blocks:]
		c.newer, u8 = u8[:blocks:blocks], u8[blocks:]
		c.mru, c.lru = u8[:nsets:nsets], u8[nsets:]
		for i := range c.mru {
			c.mru[i], c.lru[i] = noWay, noWay
		}
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// EnableFillStamps allocates the fill-timestamp lane read by FillStamp.
// Idempotent; called once at engine construction when telemetry is
// enabled. Without it, StampFill and FillStamp are no-ops.
func (c *Cache) EnableFillStamps() {
	if c.fillAt == nil {
		c.fillAt = make([]uint64, c.nsets*c.ways)
	}
}

// StampFill records that resident block b was filled at the given
// simulation cycle. No-op when the block is absent or EnableFillStamps
// was never called.
func (c *Cache) StampFill(b addr.BlockNum, cycle uint64) {
	if c.fillAt == nil {
		return
	}
	set, tag := c.index(b)
	base := int(set) * c.ways
	if w := c.findWay(base, tag, c.valid[set]); w >= 0 {
		c.fillAt[base+w] = cycle
	}
}

// FillStamp returns and clears block b's fill-cycle stamp. ok is false
// when the block is absent, was never stamped, or stamps are disabled.
func (c *Cache) FillStamp(b addr.BlockNum) (cycle uint64, ok bool) {
	if c.fillAt == nil {
		return 0, false
	}
	set, tag := c.index(b)
	base := int(set) * c.ways
	w := c.findWay(base, tag, c.valid[set])
	if w < 0 || c.fillAt[base+w] == 0 {
		return 0, false
	}
	cycle = c.fillAt[base+w]
	c.fillAt[base+w] = 0
	return cycle, true
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.nsets }

// Stats returns a snapshot of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics counters without touching cache contents
// (used to discard warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

// index splits a block number into its set index and tag.
func (c *Cache) index(b addr.BlockNum) (set uint64, tag uint64) {
	return uint64(b) & c.setMask, uint64(b) >> c.tagShift
}

// findWay scans one set's slice of the packed tag lane for tag and returns
// the matching valid way, or -1. The scan is branch-light: a 4-way unrolled
// pass accumulates an equality mask over all ways (the per-way branches are
// almost-always-not-taken, so they predict perfectly), the set's valid mask
// filters stale tags of invalidated ways, and a single trailing-zeros pick
// resolves the way index. At most one valid way can match (Fill refuses
// duplicates), so lowest-bit pick equals the legacy first-match scan.
func (c *Cache) findWay(base int, tag, vmask uint64) int {
	tags := c.tags[base : base+c.ways : base+c.ways]
	var m uint64
	i := 0
	for ; i+4 <= len(tags); i += 4 {
		if tags[i] == tag {
			m |= 1 << uint(i)
		}
		if tags[i+1] == tag {
			m |= 2 << uint(i)
		}
		if tags[i+2] == tag {
			m |= 4 << uint(i)
		}
		if tags[i+3] == tag {
			m |= 8 << uint(i)
		}
	}
	for ; i < len(tags); i++ {
		if tags[i] == tag {
			m |= 1 << uint(i)
		}
	}
	m &= vmask
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

// duelKind classifies a set for DRRIP set dueling: 0 = SRRIP leader,
// 1 = bimodal leader, 2 = follower. One set in 32 leads for each policy.
func duelKind(idx uint64) int {
	switch idx % 32 {
	case 0:
		return 0
	case 1:
		return 1
	}
	return 2
}

// Access performs a demand access for block b. It returns hit=true when the
// block is resident. On a hit the replacement state is promoted; misses do
// NOT allocate — the caller fills the line via Fill once the DRAM read
// completes, which keeps fill timing in the simulator's hands.
func (c *Cache) Access(b addr.BlockNum, write bool) (hit bool) {
	hit, _ = c.AccessInfo(b, write)
	return hit
}

// AccessInfo is Access with prefetch attribution: firstUse reports that the
// hit consumed a prefetched line for the first time (the event counted in
// Stats.UsefulPrefetches).
func (c *Cache) AccessInfo(b addr.BlockNum, write bool) (hit, firstUse bool) {
	hit, firstUse, _ = c.AccessOrigin(b, write)
	return hit, firstUse
}

// AccessOrigin is AccessInfo extended with the origin tag of the consumed
// prefetched line: when firstUse is true, origin carries the tag the line
// was filled with (see FillOrigin); it is 0 otherwise.
func (c *Cache) AccessOrigin(b addr.BlockNum, write bool) (hit, firstUse bool, origin uint8) {
	c.stats.DemandAccesses++
	set, tag := c.index(b)
	base := int(set) * c.ways
	if w := c.findWay(base, tag, c.valid[set]); w >= 0 {
		c.stats.DemandHits++
		bit := uint64(1) << uint(w)
		if c.pref[set]&bit != 0 {
			c.stats.UsefulPrefetches++
			c.pref[set] &^= bit
			firstUse = true
			origin = c.origin[base+w]
			c.origin[base+w] = 0
		}
		if write {
			c.dirty[set] |= bit
		}
		c.promote(set, base, w)
		return true, firstUse, origin
	}
	c.stats.DemandMisses++
	if c.cfg.Policy == DRRIP {
		// Set dueling: a miss in a leader set votes against its policy.
		switch duelKind(set) {
		case 0: // SRRIP leader missed → bimodal gains favour
			if c.psel < 1024 {
				c.psel++
			}
		case 1: // bimodal leader missed → SRRIP gains favour
			if c.psel > -1024 {
				c.psel--
			}
		}
	}
	return false, false, 0
}

// Contains probes for block b without touching replacement state or
// statistics. Prefetchers use it to filter already-resident targets.
func (c *Cache) Contains(b addr.BlockNum) bool {
	set, tag := c.index(b)
	return c.findWay(int(set)*c.ways, tag, c.valid[set]) >= 0
}

// EvictInfo describes a victim line.
type EvictInfo struct {
	Valid      bool          // a valid line was evicted
	Block      addr.BlockNum // the evicted block
	Dirty      bool          // requires a writeback
	Prefetched bool          // was an unused prefetch
	Origin     uint8         // origin tag of the evicted prefetch (0 = untagged)
}

// Fill inserts block b after a miss (demand or prefetch). If the block is
// already resident the fill is a no-op (a racing fill), and the returned
// EvictInfo is zero. The victim, if any, is reported so the simulator can
// issue the writeback.
func (c *Cache) Fill(b addr.BlockNum, prefetch, write bool) EvictInfo {
	return c.FillOrigin(b, prefetch, write, 0)
}

// FillOrigin is Fill with an origin tag: a prefetch fill stores the opaque
// tag in the line, and the tag comes back from AccessOrigin when the line
// is demanded for the first time. Demand fills ignore the tag.
func (c *Cache) FillOrigin(b addr.BlockNum, prefetch, write bool, origin uint8) EvictInfo {
	set, tag := c.index(b)
	base := int(set) * c.ways
	vmask := c.valid[set]
	if w := c.findWay(base, tag, vmask); w >= 0 {
		// Already present (e.g. prefetch landed after a demand fill).
		// Just merge the dirty bit.
		if write {
			c.dirty[set] |= 1 << uint(w)
		}
		return EvictInfo{}
	}
	var victim int
	var ev EvictInfo
	if free := ^vmask & (1<<uint(c.ways) - 1); free != 0 {
		// An invalid way exists: lowest index first, as the legacy
		// first-invalid scan chose.
		victim = bits.TrailingZeros64(free)
	} else {
		victim = c.victim(set, base)
		bit := uint64(1) << uint(victim)
		vDirty := c.dirty[set]&bit != 0
		vPref := c.pref[set]&bit != 0
		ev = EvictInfo{Valid: true, Block: c.reconstruct(b, c.tags[base+victim]), Dirty: vDirty, Prefetched: vPref, Origin: c.origin[base+victim]}
		c.stats.Evictions++
		if vDirty {
			c.stats.Writebacks++
		}
		if vPref {
			c.stats.WastedPrefetches++
		} else if prefetch {
			c.stats.PollutionEvicts++
		}
	}
	bit := uint64(1) << uint(victim)
	c.tags[base+victim] = tag
	if c.fillAt != nil {
		c.fillAt[base+victim] = 0 // new occupant: drop the victim's stamp
	}
	c.valid[set] |= bit
	if write {
		c.dirty[set] |= bit
	} else {
		c.dirty[set] &^= bit
	}
	c.origin[base+victim] = 0
	if c.cfg.Policy == LRU { // demand and prefetch fills both insert at MRU
		if ev.Valid {
			c.unlink(set, base, victim)
		}
		c.pushMRU(set, base, victim)
	}
	switch {
	case prefetch:
		c.pref[set] |= bit
		c.origin[base+victim] = origin
		c.stats.PrefetchFills++
		// RRIP-family policies insert prefetches with a distant
		// re-reference prediction so inaccurate prefetchers pollute
		// less.
		c.rrpv[base+victim] = maxRRPV
	default:
		c.pref[set] &^= bit
		c.stats.DemandFills++
		c.rrpv[base+victim] = c.insertRRPV(set)
	}
	return ev
}

// insertRRPV picks the demand-fill insertion RRPV under the active policy.
func (c *Cache) insertRRPV(idx uint64) uint8 {
	if c.cfg.Policy != DRRIP {
		return maxRRPV - 1 // SRRIP default (ignored by LRU/Random)
	}
	bimodal := false
	switch duelKind(idx) {
	case 0:
		bimodal = false
	case 1:
		bimodal = true
	default:
		bimodal = c.psel > 0
	}
	if !bimodal {
		return maxRRPV - 1
	}
	// Bimodal: mostly distant, occasionally near.
	c.brip++
	if c.brip%32 == 0 {
		return maxRRPV - 1
	}
	return maxRRPV
}

// Invalidate drops block b if resident, returning whether it was dirty.
func (c *Cache) Invalidate(b addr.BlockNum) (wasDirty bool) {
	set, tag := c.index(b)
	base := int(set) * c.ways
	w := c.findWay(base, tag, c.valid[set])
	if w < 0 {
		return false
	}
	bit := uint64(1) << uint(w)
	wasDirty = c.dirty[set]&bit != 0
	c.valid[set] &^= bit
	c.dirty[set] &^= bit
	c.pref[set] &^= bit
	c.tags[base+w] = 0
	c.rrpv[base+w] = 0
	c.origin[base+w] = 0
	if c.fillAt != nil {
		c.fillAt[base+w] = 0
	}
	if c.cfg.Policy == LRU {
		c.unlink(set, base, w)
	}
	return wasDirty
}

// reconstruct rebuilds the block number of a victim from its tag and the set
// index of the incoming block (same set by construction).
func (c *Cache) reconstruct(incoming addr.BlockNum, tag uint64) addr.BlockNum {
	idx := uint64(incoming) & c.setMask
	return addr.BlockNum(tag<<c.tagShift | idx)
}

// promote refreshes the replacement state of way w of set (lane index
// base + w) after a demand hit.
func (c *Cache) promote(set uint64, base, w int) {
	switch c.cfg.Policy {
	case LRU:
		if c.mru[set] != uint8(w) {
			c.unlink(set, base, w)
			c.pushMRU(set, base, w)
		}
	case SRRIP, DRRIP:
		c.rrpv[base+w] = 0
	}
}

// unlink removes valid way w from set's LRU recency list.
func (c *Cache) unlink(set uint64, base, w int) {
	o, n := c.older[base+w], c.newer[base+w]
	if o == noWay {
		c.lru[set] = n
	} else {
		c.newer[base+int(o)] = n
	}
	if n == noWay {
		c.mru[set] = o
	} else {
		c.older[base+int(n)] = o
	}
}

// pushMRU links way w, not in the list, at the MRU end of set's list.
func (c *Cache) pushMRU(set uint64, base, w int) {
	m := c.mru[set]
	c.older[base+w], c.newer[base+w] = m, noWay
	if m == noWay {
		c.lru[set] = uint8(w)
	} else {
		c.newer[base+int(m)] = uint8(w)
	}
	c.mru[set] = uint8(w)
}

// victim picks the way to evict from a full set under the active policy.
// Each choice equals the AoS reference's scan exactly. LRU takes the LRU
// end of the recency list: the reference stamps every hit and fill with a
// fresh access count, so its stamps are unique and the list order is their
// order. SRRIP/DRRIP take the lowest way at maxRRPV (ageing every way until
// one reaches it), and Random consumes the seeded RNG in the same sequence.
func (c *Cache) victim(set uint64, base int) int {
	switch c.cfg.Policy {
	case LRU:
		return int(c.lru[set])
	case SRRIP, DRRIP:
		rr := c.rrpv[base : base+c.ways : base+c.ways]
		for {
			for i := range rr {
				if rr[i] >= maxRRPV {
					return i
				}
			}
			for i := range rr {
				rr[i]++
			}
		}
	case Random:
		return c.rng.Intn(c.ways)
	}
	return 0
}
