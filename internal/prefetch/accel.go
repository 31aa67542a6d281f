package prefetch

import "repro/internal/addr"

// AccelConfig sizes the delta-delta "acceleration" component. Start from
// DefaultAccelConfig; its values are shown in parentheses.
type AccelConfig struct {
	// Entries is the per-page table size, rounded up to a power of two
	// (128).
	Entries int
	// Degree is how many extrapolation steps Issue takes per trigger (3).
	Degree int
	// MinConf is the number of consecutive confirmations of the same
	// acceleration before predictions are issued (2, of 0..3).
	MinConf int
}

// DefaultAccelConfig returns the configuration used by the built-in
// "accel" prefetcher and the planaria-tournament component.
func DefaultAccelConfig() AccelConfig {
	return AccelConfig{Entries: 128, Degree: 3, MinConf: 2}
}

// accelEntry tracks one page's first- and second-order access deltas.
type accelEntry struct {
	page    addr.PageNum
	lastOff int
	delta   int  // last observed first-order delta
	accel   int  // last observed delta-of-deltas
	conf    int  // consecutive confirmations of accel, saturating at 3
	primed  bool // delta holds a real observation (two accesses seen)
	valid   bool
}

// Accel is a PC-free delta-delta ("acceleration") prefetcher: per page it
// tracks the first-order segment-offset delta and the second-order delta
// (how the delta itself changes), and once the acceleration has repeated
// MinConf times it extrapolates the arithmetically accelerating sequence
// Degree steps ahead. With acceleration 0 it behaves like a confirmed
// stride predictor; with nonzero acceleration it covers growing or
// shrinking sweeps (0,1,3,6,10... triangular walks) that defeat both
// Stride and order-1 Markov tables.
type Accel struct {
	cfg   AccelConfig
	table []accelEntry

	issues uint64
}

// NewAccel builds an Accel component; start cfg from DefaultAccelConfig.
func NewAccel(cfg AccelConfig) *Accel {
	cfg.Entries = ceilPow2(cfg.Entries)
	return &Accel{cfg: cfg, table: make([]accelEntry, cfg.Entries)}
}

// Name implements Prefetcher.
func (p *Accel) Name() string { return "accel" }

// Reset implements Prefetcher.
func (p *Accel) Reset() {
	for i := range p.table {
		p.table[i] = accelEntry{}
	}
	p.issues = 0
}

func (p *Accel) slot(page addr.PageNum) *accelEntry {
	return &p.table[uint64(page)&uint64(len(p.table)-1)]
}

// Train implements Prefetcher: fold the access into the page's first- and
// second-order delta state.
func (p *Accel) Train(a Access) {
	e := p.slot(a.Page())
	off := a.Block.SegOffset()
	if !e.valid || e.page != a.Page() {
		*e = accelEntry{page: a.Page(), lastOff: off, valid: true}
		return
	}
	d := off - e.lastOff
	if d == 0 {
		return
	}
	if e.primed {
		acc := d - e.delta
		if acc == e.accel {
			if e.conf < 3 {
				e.conf++
			}
		} else {
			e.accel = acc
			e.conf = 0
		}
	}
	e.delta = d
	e.primed = true
	e.lastOff = off
}

// Issue implements Prefetcher.
func (p *Accel) Issue(a Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// IssueTo implements Prefetcher.
func (p *Accel) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	out := p.Peek(a, dst)
	if len(out) > len(dst) {
		p.issues++
	}
	return out
}

// Peek implements Component: on a miss, extrapolate the accelerating
// sequence from the trigger offset without mutating the table.
func (p *Accel) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	e := p.slot(a.Page())
	if !a.Miss || !e.valid || e.page != a.Page() || !e.primed || e.conf < p.cfg.MinConf {
		return dst
	}
	d := e.delta + e.accel
	if d == 0 && e.accel == 0 {
		return dst
	}
	page := a.Page()
	ch := a.Block.Channel()
	off := a.Block.SegOffset()
	for i := 0; i < p.cfg.Degree; i++ {
		off += d
		if off < 0 || off >= addr.SegmentBlocks {
			break
		}
		dst = append(dst, page.Block(addr.OffsetOf(ch, off)))
		d += e.accel
		if d == 0 {
			break // sequence stalled; further targets would repeat
		}
	}
	return dst
}

// Issues returns the number of Issue calls that produced predictions.
func (p *Accel) Issues() uint64 { return p.issues }

// StorageBits implements Prefetcher: page tag (36) + offset (4) + delta (5)
// + acceleration (6) + confidence (2) + primed (1) + valid (1) per entry.
func (p *Accel) StorageBits() int { return len(p.table) * (36 + 4 + 5 + 6 + 2 + 1 + 1) }
