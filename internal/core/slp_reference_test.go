package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/prefetch"
)

// This file pins SLP against refSLP, the entry-struct (AoS) implementation
// with linear lookups, a first-invalid scan and a stalest-entry scan per
// table, kept here as an executable specification. The property test and
// the fuzz target drive both through identical access streams — cycles
// that repeat and run backwards, and a Reset mid-stream — and demand that
// every step agrees on IssueTo, Counters, Pattern and HasMetadata.

type refSLPEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
}

type refSLP struct {
	cfg    SLPConfig
	ft, at []refSLPEntry
	pt     []refSLPEntry // last unused; page is the full tag
	ptMask uint64
	sweep  int

	promotions, snapshots, issues uint64
}

// newRefSLP builds the reference over an already-defaulted configuration
// (pass the cfg of the NewSLP instance it is compared against).
func newRefSLP(cfg SLPConfig) *refSLP {
	return &refSLP{
		cfg:    cfg,
		ft:     make([]refSLPEntry, cfg.FTEntries),
		at:     make([]refSLPEntry, cfg.ATEntries),
		pt:     make([]refSLPEntry, cfg.PTEntries),
		ptMask: uint64(cfg.PTEntries - 1),
	}
}

func (s *refSLP) reset() {
	clear(s.ft)
	clear(s.at)
	clear(s.pt)
	s.sweep, s.promotions, s.snapshots, s.issues = 0, 0, 0, 0
}

// refFind returns the slot of the valid entry holding page p, or -1.
func refFind(table []refSLPEntry, p addr.PageNum) int {
	for i := range table {
		if table[i].valid && table[i].page == p {
			return i
		}
	}
	return -1
}

// refSlot returns the first invalid slot, or else the stalest one: the
// smallest last, lowest slot on ties.
func refSlot(table []refSLPEntry) (i int, evict bool) {
	for i := range table {
		if !table[i].valid {
			return i, false
		}
	}
	lru := 0
	for i := 1; i < len(table); i++ {
		if table[i].last < table[lru].last {
			lru = i
		}
	}
	return lru, true
}

func (s *refSLP) train(a prefetch.Access) {
	s.expire(a.Cycle)
	p := a.Page()
	off := a.Block.SegOffset()
	if i := refFind(s.at, p); i >= 0 {
		s.at[i].bits = s.at[i].bits.Set(off)
		s.at[i].last = a.Cycle
		return
	}
	if i := refFind(s.ft, p); i >= 0 {
		e := &s.ft[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		if e.bits.Count() >= s.cfg.FTPromote {
			s.promote(i, a.Cycle)
		}
		return
	}
	i, _ := refSlot(s.ft)
	s.ft[i] = refSLPEntry{page: p, bits: bitmap.Seg16(0).Set(off), last: a.Cycle, valid: true}
}

func (s *refSLP) promote(i int, now uint64) {
	f := s.ft[i]
	s.ft[i] = refSLPEntry{}
	s.promotions++
	j, evict := refSlot(s.at)
	if evict {
		s.capture(s.at[j])
	}
	s.at[j] = refSLPEntry{page: f.page, bits: f.bits, last: now, valid: true}
}

func (s *refSLP) expire(now uint64) {
	for k := 0; k < 4; k++ {
		e := &s.at[s.sweep]
		s.sweep = (s.sweep + 1) % len(s.at)
		if e.valid && now > e.last && now-e.last > s.cfg.Timeout {
			s.capture(*e)
			*e = refSLPEntry{}
		}
	}
}

func (s *refSLP) capture(e refSLPEntry) {
	if !e.valid || e.bits.Count() == 0 {
		return
	}
	s.snapshots++
	s.pt[uint64(e.page)&s.ptMask] = refSLPEntry{page: e.page, bits: e.bits, valid: true}
}

func (s *refSLP) pattern(p addr.PageNum) (bitmap.Seg16, bool) {
	e := s.pt[uint64(p)&s.ptMask]
	if e.valid && e.page == p {
		return e.bits, true
	}
	return 0, false
}

func (s *refSLP) issueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	pat, ok := s.pattern(p)
	if !ok {
		return dst
	}
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

// runSLPEquiv drives NewSLP(cfg) and the reference through stream, resets
// both before step resetAt (no reset when it is out of range), and fails on
// the first disagreement. Every step also probes a page taken from
// elsewhere in the stream, which may never have been captured.
func runSLPEquiv(t *testing.T, cfg SLPConfig, stream []prefetch.Access, resetAt int) {
	t.Helper()
	s := NewSLP(cfg)
	ref := newRefSLP(s.cfg)
	var got, want []addr.BlockNum
	for k, a := range stream {
		if k == resetAt {
			s.Reset()
			ref.reset()
		}
		s.Train(a)
		ref.train(a)
		for _, p := range []addr.PageNum{a.Page(), stream[(k*7+3)%len(stream)].Page()} {
			gb, gok := s.Pattern(p)
			wb, wok := ref.pattern(p)
			if gb != wb || gok != wok {
				t.Fatalf("step %d Pattern(%#x): SLP (%s, %v), reference (%s, %v)", k, uint64(p), gb, gok, wb, wok)
			}
			if g := s.HasMetadata(p); g != wok {
				t.Fatalf("step %d HasMetadata(%#x): SLP %v, reference %v", k, uint64(p), g, wok)
			}
		}
		got = s.IssueTo(a, got[:0])
		want = ref.issueTo(a, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("step %d IssueTo: SLP %v, reference %v", k, got, want)
		}
		gp, gs, gi := s.Counters()
		if gp != ref.promotions || gs != ref.snapshots || gi != ref.issues {
			t.Fatalf("step %d Counters: SLP (%d, %d, %d), reference (%d, %d, %d)",
				k, gp, gs, gi, ref.promotions, ref.snapshots, ref.issues)
		}
	}
}

// slpEquivSizes covers single-entry tables, 4-entry churn, the production
// shape, and 70/130 entries, which cross a 64-slot word of the free masks.
var slpEquivSizes = [][2]int{{1, 1}, {4, 4}, {64, 128}, {70, 130}}

// slpEquivConfig builds the configuration a (size, promote, timeout)
// selector names. The PT is small, so captures collide in it.
func slpEquivConfig(size, promote, timeout int) SLPConfig {
	timeouts := []uint64{1, 50}
	sz := slpEquivSizes[size%len(slpEquivSizes)]
	return SLPConfig{
		FTEntries: sz[0], ATEntries: sz[1], PTEntries: 64,
		FTPromote: 1 + promote%3, Timeout: timeouts[timeout%len(timeouts)],
	}
}

// TestSLPMatchesReference is the property test: seeded random streams over
// every table size, promotion threshold and timeout, each reset midway.
func TestSLPMatchesReference(t *testing.T) {
	for size := range slpEquivSizes {
		for promote := 0; promote < 3; promote++ {
			for timeout := 0; timeout < 2; timeout++ {
				cfg := slpEquivConfig(size, promote, timeout)
				name := fmt.Sprintf("ft%d-at%d/promote%d/timeout%d", cfg.FTEntries, cfg.ATEntries, cfg.FTPromote, cfg.Timeout)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(size*6 + promote*2 + timeout)))
					ops := make([]byte, 4*4000)
					rng.Read(ops)
					// Narrow most pages so entries accumulate, promote
					// and time out, and most cycle steps so LRU ties are
					// common.
					for i := 0; i < len(ops); i += 4 {
						if i%12 != 0 {
							ops[i] &= 31
						}
						if ops[i+2] < 224 {
							ops[i+2] &= 3
						}
					}
					runSLPEquiv(t, cfg, decodeTLPStream(0x1000, ops), 2500)
				})
			}
		}
	}
}

// FuzzSLPEquivalence lets the fuzzer hunt for access streams that split SLP
// from the reference. The stream format is decodeTLPStream's. Run with
//
//	go test -fuzz=FuzzSLPEquivalence ./internal/core/
func FuzzSLPEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(0), uint16(3), []byte{0, 1, 5, 1, 0, 2, 5, 1, 0, 3, 5, 1, 1, 2, 5, 1})
	f.Add(uint8(1), uint8(0), uint8(1), uint16(2), []byte{3, 4, 250, 1, 3, 5, 230, 1, 4, 4, 7, 1, 3, 6, 0, 1})
	f.Add(uint8(3), uint8(1), uint8(0), uint16(9999), []byte{7, 0, 1, 1, 7, 1, 241, 0, 7, 2, 1, 1, 8, 1, 224, 1})
	f.Fuzz(func(t *testing.T, size, promote, timeout uint8, resetAt uint16, ops []byte) {
		if len(ops) > 4*2048 {
			ops = ops[:4*2048]
		}
		stream := decodeTLPStream(0x1000, ops)
		if len(stream) == 0 {
			return
		}
		runSLPEquiv(t, slpEquivConfig(int(size), int(promote), int(timeout)), stream, int(resetAt))
	})
}
