// Package spp implements the Signature Path Prefetcher (Jinchun Kim et al.,
// "Path Confidence based Lookahead Prefetching", MICRO 2016), the stronger
// of the two baselines in the Planaria paper.
//
// SPP is PC-free by construction — signatures are compressed histories of
// per-page offset deltas — which is why it can be deployed at the system
// cache at all. It remains delta-based, however: interleaved multi-device
// traffic at the memory side scrambles the delta sequences it keys on, which
// is the weakness Planaria's footprint approach sidesteps.
package spp

import (
	"repro/internal/addr"
	"repro/internal/prefetch"
)

const (
	sigBits    = 12
	sigMask    = (1 << sigBits) - 1
	sigShift   = 3
	maxCtr     = 15 // 4-bit saturating counters
	deltaSlots = 4
)

// Config parameterises SPP.
type Config struct {
	STSize    int     // signature-table entries (power of two)
	PTSize    int     // pattern-table entries (power of two, ≥ 1<<sigBits recommended)
	Threshold float64 // path-confidence floor for continuing lookahead (paper: 0.25)
	MaxDepth  int     // maximum lookahead depth (paper: unbounded in principle; 8 here)
	UseGHR    bool    // enable the cross-page global history register
}

// DefaultConfig mirrors the MICRO'16 sizing scaled to the 16-block channel
// segment.
func DefaultConfig() Config {
	return Config{STSize: 256, PTSize: 1 << sigBits, Threshold: 0.25, MaxDepth: 8}
}

type stEntry struct {
	tag     uint64
	lastOff int8
	sig     uint16
	valid   bool
}

type ptDelta struct {
	delta int8
	ctr   uint8
}

type ptEntry struct {
	cSig   uint8
	deltas [deltaSlots]ptDelta
}

// SPP is the prefetcher state for one channel.
type SPP struct {
	cfg    Config
	st     []stEntry
	stMask uint64
	pt     []ptEntry
	ptMask uint64
	g      *ghr // non-nil when Config.UseGHR
}

// New builds an SPP instance; start cfg from DefaultConfig.
func New(cfg Config) *SPP {
	st := 1
	for st < cfg.STSize {
		st <<= 1
	}
	pt := 1
	for pt < cfg.PTSize {
		pt <<= 1
	}
	s := &SPP{
		cfg:    cfg,
		st:     make([]stEntry, st),
		stMask: uint64(st - 1),
		pt:     make([]ptEntry, pt),
		ptMask: uint64(pt - 1),
	}
	if cfg.UseGHR {
		s.g = &ghr{}
	}
	return s
}

// Name implements prefetch.Prefetcher.
func (s *SPP) Name() string {
	if s.cfg.UseGHR {
		return "spp-ghr"
	}
	return "spp"
}

// Reset implements prefetch.Prefetcher.
func (s *SPP) Reset() {
	for i := range s.st {
		s.st[i] = stEntry{}
	}
	for i := range s.pt {
		s.pt[i] = ptEntry{}
	}
	if s.g != nil {
		s.g.reset()
	}
}

func sigUpdate(sig uint16, delta int) uint16 {
	// Fold the signed delta into a small non-zero code, as in the paper.
	code := uint16(delta & 0x3F)
	return (sig<<sigShift ^ code) & sigMask
}

func (s *SPP) stSlot(p addr.PageNum) *stEntry { return &s.st[uint64(p)&s.stMask] }

func (s *SPP) ptSlot(sig uint16) *ptEntry { return &s.pt[uint64(sig)&s.ptMask] }

// Train implements prefetch.Prefetcher: update the per-page signature and
// record the observed delta under the page's previous signature.
func (s *SPP) Train(a prefetch.Access) {
	p := a.Page()
	off := a.Block.SegOffset()
	e := s.stSlot(p)
	if !e.valid || e.tag != uint64(p) {
		if s.g != nil {
			s.trainGHR(e, p, off)
		} else {
			*e = stEntry{tag: uint64(p), lastOff: int8(off), sig: 0, valid: true}
		}
		return
	}
	delta := off - int(e.lastOff)
	if delta == 0 {
		return
	}
	s.learn(e.sig, delta)
	e.sig = sigUpdate(e.sig, delta)
	e.lastOff = int8(off)
}

func (s *SPP) learn(sig uint16, delta int) {
	pe := s.ptSlot(sig)
	if pe.cSig < maxCtr {
		pe.cSig++
	} else {
		// Saturating renormalisation keeps ratios meaningful.
		pe.cSig = maxCtr/2 + 1
		for i := range pe.deltas {
			pe.deltas[i].ctr /= 2
		}
	}
	minI := 0
	for i := range pe.deltas {
		d := &pe.deltas[i]
		if d.ctr > 0 && int(d.delta) == delta {
			if d.ctr < maxCtr {
				d.ctr++
			}
			return
		}
		if d.ctr < pe.deltas[minI].ctr {
			minI = i
		}
	}
	pe.deltas[minI] = ptDelta{delta: int8(delta), ctr: 1}
}

// Issue implements prefetch.Prefetcher: walk the signature path, compounding
// confidence, and emit prefetches within the channel segment.
func (s *SPP) Issue(a prefetch.Access) []addr.BlockNum {
	return s.IssueTo(a, nil)
}

// IssueTo implements prefetch.BufferedIssuer.
func (s *SPP) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	p := a.Page()
	e := s.stSlot(p)
	if !e.valid || e.tag != uint64(p) {
		return dst
	}
	sig := e.sig
	off := a.Block.SegOffset()
	conf := 1.0
	ch := a.Block.Channel()
	for depth := 0; depth < s.cfg.MaxDepth; depth++ {
		pe := s.ptSlot(sig)
		if pe.cSig == 0 {
			break
		}
		best := -1
		for i := range pe.deltas {
			if pe.deltas[i].ctr == 0 {
				continue
			}
			if best == -1 || pe.deltas[i].ctr > pe.deltas[best].ctr {
				best = i
			}
		}
		if best == -1 {
			break
		}
		d := pe.deltas[best]
		conf *= float64(d.ctr) / float64(pe.cSig)
		if conf < s.cfg.Threshold {
			break
		}
		prevOff := off
		off += int(d.delta)
		if off < 0 || off >= addr.SegmentBlocks {
			// Segment (page) boundary: park the walk in the GHR so a
			// neighbouring page can continue it; without a GHR the
			// walk simply ends.
			s.recordBoundary(sig, conf, prevOff, int(d.delta))
			break
		}
		dst = append(dst, p.Block(addr.OffsetOf(ch, off)))
		sig = sigUpdate(sig, int(d.delta))
	}
	return dst
}

// StorageBits implements prefetch.Prefetcher: ST entry = tag 36 + lastOff 4 +
// sig 12 + valid 1; PT entry = cSig 4 + 4 × (delta 6 + ctr 4).
func (s *SPP) StorageBits() int {
	return len(s.st)*(36+4+12+1) + len(s.pt)*(4+deltaSlots*(6+4))
}
