package prefetch

import "repro/internal/addr"

// MarkovConfig sizes the order-N delta-history component. Start from
// DefaultMarkovConfig; its values are shown in parentheses.
type MarkovConfig struct {
	// History is the Markov order N: how many consecutive per-page deltas
	// form the pattern-table signature (2, capped at 3 — each delta
	// takes 5 signature bits).
	History int
	// Trackers is the page-tracker table size, rounded up to a power of
	// two (128). Each tracker carries one page's last segment offset and
	// its delta-history shift register.
	Trackers int
	// Patterns is the pattern-table size, rounded up to a power of two
	// (1024 — with the default order 2 that is one entry per possible
	// 2-delta history, a perfect map). Each entry maps a delta-history
	// signature to one predicted next delta with a 2-bit confidence
	// counter.
	Patterns int
	// Degree is how many chained predictions Issue follows through the
	// pattern table per trigger (4).
	Degree int
	// MinConf is the confidence a pattern entry needs before its
	// prediction is issued (2, of the 0..3 counter range).
	MinConf int
}

// DefaultMarkovConfig returns the configuration used by the built-in
// "markov" prefetcher and the planaria-tournament component.
func DefaultMarkovConfig() MarkovConfig {
	return MarkovConfig{History: 2, Trackers: 128, Patterns: 1024, Degree: 4, MinConf: 2}
}

// markovTracker is one page's delta-history state.
type markovTracker struct {
	page    addr.PageNum
	lastOff int
	sig     uint16 // shift register: the last History deltas, 5 bits each
	primed  int    // deltas folded into sig so far, saturating at History
	valid   bool
}

// markovPattern maps one delta-history signature to a next-delta prediction.
type markovPattern struct {
	tag   uint16
	delta int8
	conf  uint8 // 2-bit saturating confidence
	valid bool
}

// Markov is a PC-free order-N delta-history prefetcher ("Markov-N"): it
// learns which segment-offset delta tends to follow each observed sequence
// of N deltas within a page, and on a trigger walks the learned transitions
// Degree steps ahead. The signature is exactly the page's last N deltas
// packed 5 bits apiece — no program counter is involved, matching the
// paper's memory-side setting, and identical histories always index the
// same pattern entry.
//
// Unlike Stride (one constant delta per page) Markov captures repeating
// non-constant delta sequences (+1,+3,+1,+3,...); unlike SPP it has no
// global history register and keeps all state per channel.
type Markov struct {
	cfg      MarkovConfig
	trackers []markovTracker
	patterns []markovPattern

	// issues counts Issue calls that produced at least one prediction
	// (the component's internal confidence/usage statistic).
	issues uint64
}

// NewMarkov builds a Markov component; start cfg from DefaultMarkovConfig.
func NewMarkov(cfg MarkovConfig) *Markov {
	if cfg.History > 3 {
		cfg.History = 3 // 5 bits per delta; the signature register is 16 bits
	}
	cfg.Trackers = ceilPow2(cfg.Trackers)
	cfg.Patterns = ceilPow2(cfg.Patterns)
	return &Markov{
		cfg:      cfg,
		trackers: make([]markovTracker, cfg.Trackers),
		patterns: make([]markovPattern, cfg.Patterns),
	}
}

// Name implements Prefetcher.
func (m *Markov) Name() string { return "markov" }

// Reset implements Prefetcher.
func (m *Markov) Reset() {
	for i := range m.trackers {
		m.trackers[i] = markovTracker{}
	}
	for i := range m.patterns {
		m.patterns[i] = markovPattern{}
	}
	m.issues = 0
}

// sigStep shifts one delta into the history register: the oldest delta's
// 5 bits fall off the top, the new delta's enter at the bottom, so the
// register always holds exactly the last History deltas (sigMask keeps the
// width at 5×History bits). Segment offsets span [0, 16), so every possible
// delta (−15..15) has a distinct 5-bit two's-complement encoding and
// distinct histories never collide in the register.
func (m *Markov) sigStep(sig uint16, delta int) uint16 {
	return (sig<<5 | uint16(delta&0x1f)) & m.sigMask()
}

// sigMask is the history register's width mask: 5 bits per remembered delta.
func (m *Markov) sigMask() uint16 {
	return uint16(1)<<(5*m.cfg.History) - 1
}

func (m *Markov) tracker(p addr.PageNum) *markovTracker {
	return &m.trackers[uint64(p)&uint64(len(m.trackers)-1)]
}

func (m *Markov) pattern(sig uint16) *markovPattern {
	return &m.patterns[uint64(sig)&uint64(len(m.patterns)-1)]
}

// Train implements Prefetcher: update the page's tracker and train the
// pattern table on the (signature → delta) transition just observed.
func (m *Markov) Train(a Access) {
	t := m.tracker(a.Page())
	off := a.Block.SegOffset()
	if !t.valid || t.page != a.Page() {
		*t = markovTracker{page: a.Page(), lastOff: off, valid: true}
		return
	}
	delta := off - t.lastOff
	if delta == 0 {
		return
	}
	if t.primed >= m.cfg.History {
		// The signature covers a full N-delta history: train it.
		e := m.pattern(t.sig)
		switch {
		case e.valid && e.tag == t.sig && int(e.delta) == delta:
			if e.conf < 3 {
				e.conf++
			}
		case e.valid && e.tag == t.sig:
			// Same history, different outcome: decay, and only
			// repoint the prediction once confidence is exhausted.
			if e.conf > 0 {
				e.conf--
			} else {
				e.delta = int8(delta)
			}
		default:
			// Tag miss: allocate (direct-mapped, always-replace, like
			// the SLP pattern table).
			*e = markovPattern{tag: t.sig, delta: int8(delta), conf: 1, valid: true}
		}
	}
	t.sig = m.sigStep(t.sig, delta)
	if t.primed < m.cfg.History {
		t.primed++
	}
	t.lastOff = off
}

// Issue implements Prefetcher.
func (m *Markov) Issue(a Access) []addr.BlockNum {
	return m.IssueTo(a, nil)
}

// IssueTo implements Prefetcher.
func (m *Markov) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	out := m.Peek(a, dst)
	if len(out) > len(dst) {
		m.issues++
	}
	return out
}

// Peek implements Component: on a miss, walk the pattern table from the
// page's current signature, chaining up to Degree confident transitions,
// without touching any state.
func (m *Markov) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	t := m.tracker(a.Page())
	if !a.Miss || !t.valid || t.page != a.Page() || t.primed < m.cfg.History {
		return dst
	}
	page := a.Page()
	ch := a.Block.Channel()
	off := a.Block.SegOffset()
	sig := t.sig
	for i := 0; i < m.cfg.Degree; i++ {
		e := m.pattern(sig)
		if !e.valid || e.tag != sig || int(e.conf) < m.cfg.MinConf {
			break
		}
		off += int(e.delta)
		if off < 0 || off >= addr.SegmentBlocks {
			break
		}
		dst = append(dst, page.Block(addr.OffsetOf(ch, off)))
		sig = m.sigStep(sig, int(e.delta))
	}
	return dst
}

// Issues returns the number of Issue calls that produced predictions.
func (m *Markov) Issues() uint64 { return m.issues }

// StorageBits implements Prefetcher.
// Tracker entry: page tag (36) + offset (4) + signature (5×History) +
// primed (2) + valid (1). Pattern entry: signature tag above the index
// (5×History − log2(Patterns), ≥ 0) + delta (5) + confidence (2) + valid (1).
func (m *Markov) StorageBits() int {
	sigBits := 5 * m.cfg.History
	patTag := sigBits - log2i(len(m.patterns))
	if patTag < 0 {
		patTag = 0
	}
	return len(m.trackers)*(36+4+sigBits+2+1) + len(m.patterns)*(patTag+5+2+1)
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// log2i returns floor(log2(v)) for v ≥ 1.
func log2i(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
