// Package bop implements the Best-Offset Prefetcher (Pierre Michaud,
// "Best-Offset Hardware Prefetching", HPCA 2016), one of the two
// state-of-the-art baselines the Planaria paper evaluates against.
//
// BOP learns a single best block offset D by testing candidate offsets
// against a Recent Requests (RR) table: offset d scores a point whenever the
// current access X would have been covered by a prefetch issued at X-d. At
// the end of a learning round the highest-scoring offset becomes the active
// prefetch offset. BOP is delta-based, which is exactly the regularity the
// paper argues has been filtered away before the system cache — making it a
// traffic-heavy, low-accuracy prefetcher in this setting.
package bop

import (
	"repro/internal/addr"
	"repro/internal/prefetch"
)

// Config parameterises BOP.
type Config struct {
	ScoreMax int   // stop a round early when a score reaches this (paper: 31)
	RoundMax int   // max test passes per round (paper: 100)
	BadScore int   // below this best score, prefetch is disabled (paper: 1)
	RRSize   int   // entries in the recent-requests table (power of two)
	Degree   int   // prefetches issued per trigger
	Offsets  []int // candidate offsets tested by the learner
}

// DefaultConfig mirrors the HPCA'16 parameters, with a higher BadScore
// cut-off: at the system-cache level the RR table sees enough coincidental
// matches that the original threshold of 1 never turns prefetching off, so
// the off switch engages only below a score of 14. Michaud tests offsets
// whose prime factors are ≤ 5 (they interact well with interleaved
// streams); the list here is the 5-smooth values up to half a page in both
// directions.
func DefaultConfig() Config {
	return Config{
		ScoreMax: 31, RoundMax: 100, BadScore: 14, RRSize: 64, Degree: 1,
		Offsets: []int{
			1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32,
			-1, -2, -3, -4, -5, -6, -8, -9, -10, -12, -15, -16, -18, -20, -24, -25, -27, -30, -32,
		},
	}
}

// BOP is the best-offset prefetcher state for one channel.
type BOP struct {
	cfg     Config
	scores  []int
	testIdx int // next offset index to test
	passes  int // completed passes in this round

	rr     []uint64 // recent block numbers (direct-mapped, tag = full block)
	rrMask uint64

	best       int // active prefetch offset
	bestScore  int
	prefetchOn bool
}

// New builds a BOP instance; start cfg from DefaultConfig.
func New(cfg Config) *BOP {
	n := 1
	for n < cfg.RRSize {
		n <<= 1
	}
	b := &BOP{
		cfg:    cfg,
		scores: make([]int, len(cfg.Offsets)),
		rr:     make([]uint64, n),
		rrMask: uint64(n - 1),
	}
	b.Reset()
	return b
}

// Name implements prefetch.Prefetcher.
func (b *BOP) Name() string { return "bop" }

// Reset implements prefetch.Prefetcher.
func (b *BOP) Reset() {
	for i := range b.rr {
		b.rr[i] = 0
	}
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx = 0
	b.passes = 0
	b.best = 1
	b.bestScore = 0
	b.prefetchOn = false
}

func (b *BOP) rrInsert(dense uint64) {
	b.rr[dense&b.rrMask] = dense | 1<<63 // bit 63 marks valid
}

func (b *BOP) rrHit(dense uint64) bool {
	return b.rr[dense&b.rrMask] == dense|1<<63
}

// Train implements prefetch.Prefetcher. Each miss (or hit on a prefetched
// line — approximated here by every demand access, as the engine does not
// expose the prefetched bit) tests one candidate offset against the RR table
// and advances the learning round.
func (b *BOP) Train(a prefetch.Access) {
	if !a.Miss {
		// Only misses drive learning at the SC level: hits were
		// filtered above and carry no DRAM-visible pattern.
		return
	}
	dense := addr.DenseIndex(a.Block)
	d := b.cfg.Offsets[b.testIdx]
	base := int64(dense) - int64(d)
	if base >= 0 && b.rrHit(uint64(base)) {
		b.scores[b.testIdx]++
		if b.scores[b.testIdx] >= b.cfg.ScoreMax {
			b.endRound()
			b.rrInsert(dense)
			return
		}
	}
	b.testIdx++
	if b.testIdx == len(b.cfg.Offsets) {
		b.testIdx = 0
		b.passes++
		if b.passes >= b.cfg.RoundMax {
			b.endRound()
		}
	}
	b.rrInsert(dense)
}

func (b *BOP) endRound() {
	bestI := 0
	for i, s := range b.scores {
		if s > b.scores[bestI] {
			bestI = i
		}
	}
	b.best = b.cfg.Offsets[bestI]
	b.bestScore = b.scores[bestI]
	b.prefetchOn = b.bestScore > b.cfg.BadScore
	for i := range b.scores {
		b.scores[i] = 0
	}
	b.testIdx = 0
	b.passes = 0
}

// Issue implements prefetch.Prefetcher: on a miss, prefetch X + k·D for
// k = 1..Degree while the learning phase has a confident offset.
func (b *BOP) Issue(a prefetch.Access) []addr.BlockNum {
	return b.IssueTo(a, nil)
}

// IssueTo implements prefetch.Prefetcher.
func (b *BOP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss || !b.prefetchOn {
		return dst
	}
	dense := addr.DenseIndex(a.Block)
	ch := a.Block.Channel()
	for k := 1; k <= b.cfg.Degree; k++ {
		t := int64(dense) + int64(k*b.best)
		if t < 0 {
			break
		}
		dst = append(dst, addr.FromDense(ch, uint64(t)))
	}
	return dst
}

// Best returns the currently selected offset and whether prefetching is on
// (exported for tests and the ablation harness).
func (b *BOP) Best() (offset int, on bool) { return b.best, b.prefetchOn }

// StorageBits implements prefetch.Prefetcher: RR entries (block tag 36 b +
// valid) + per-offset 5-bit scores + control state.
func (b *BOP) StorageBits() int {
	return len(b.rr)*(36+1) + len(b.cfg.Offsets)*5 + 32
}
