package core

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/hashidx"
	"repro/internal/prefetch"
)

// This file pins the struct-of-arrays TLP against refTLP, the
// entry-struct (AoS) implementation with a stored N×N Ref-bit slab that the
// SoA rewrite replaced, kept here as an executable specification. The
// property test and the fuzz target drive both through identical access
// streams and demand that every step agrees on BestNeighbor, on the IssueTo
// candidates and on Issues() — so deriving Ref from the page tags, the
// used-prefix validity and the unsigned window compare cannot drift from
// the semantics the stored bits defined.

type refRPTEntry struct {
	page  addr.PageNum
	bits  bitmap.Seg16
	last  uint64
	valid bool
	refs  []bool // refs[j]: entry j is a neighbour of this entry
}

type refTLP struct {
	cfg     TLPConfig
	rpt     []refRPTEntry
	refSlab []bool
	idx     *hashidx.U64
	issues  uint64
}

// newRefTLP builds the reference over an already-defaulted configuration
// (pass the cfg of the NewTLP instance it is compared against).
func newRefTLP(cfg TLPConfig) *refTLP {
	t := &refTLP{cfg: cfg}
	n := cfg.RPTEntries
	t.rpt = make([]refRPTEntry, n)
	t.refSlab = make([]bool, n*n)
	for i := range t.rpt {
		t.rpt[i].refs = t.refSlab[i*n : (i+1)*n : (i+1)*n]
	}
	t.idx = hashidx.New(n)
	return t
}

func (t *refTLP) train(a prefetch.Access) {
	p := a.Page()
	off := a.Block.SegOffset()
	if i, ok := t.idx.Get(uint64(p)); ok {
		e := &t.rpt[i]
		e.bits = e.bits.Set(off)
		e.last = a.Cycle
		return
	}
	i := t.allocate()
	e := &t.rpt[i]
	if e.valid {
		t.idx.Delete(uint64(e.page))
	}
	e.page = p
	e.bits = bitmap.Seg16(0).Set(off)
	e.last = a.Cycle
	e.valid = true
	t.idx.Put(uint64(p), int32(i))
	for j := range t.rpt {
		if j == i {
			e.refs[j] = false
			continue
		}
		o := &t.rpt[j]
		near := o.valid && p.Distance(o.page) <= t.cfg.DistThreshold
		e.refs[j] = near
		o.refs[i] = near
	}
}

func (t *refTLP) allocate() int {
	lru := 0
	for i := range t.rpt {
		if !t.rpt[i].valid {
			return i
		}
		if t.rpt[i].last < t.rpt[lru].last {
			lru = i
		}
	}
	return lru
}

func (t *refTLP) bestNeighbor(p addr.PageNum) (addr.PageNum, bitmap.Seg16, bool) {
	i, exists := t.idx.Get(uint64(p))
	if !exists {
		return 0, 0, false
	}
	self := &t.rpt[i]
	best := -1
	bestCommon := t.cfg.MinCommon - 1
	for j := range t.rpt {
		if !self.refs[j] || !t.rpt[j].valid {
			continue
		}
		c := self.bits.Common(t.rpt[j].bits)
		if c > bestCommon {
			bestCommon = c
			best = j
		}
	}
	if best == -1 {
		return 0, 0, false
	}
	tr := t.rpt[best].bits.Minus(self.bits)
	if tr == 0 {
		return 0, 0, false
	}
	return t.rpt[best].page, tr, true
}

func (t *refTLP) issueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	p := a.Page()
	_, transfer, ok := t.bestNeighbor(p)
	if !ok {
		return dst
	}
	ch := a.Block.Channel()
	for v := uint16(transfer); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, bits.TrailingZeros16(v))))
	}
	t.issues++
	return dst
}

// runTLPEquiv drives NewTLP(cfg) and the reference through stream and fails
// on the first disagreement. Besides the accessed page, every step also
// probes BestNeighbor on a page taken from elsewhere in the stream, which
// may be absent or already evicted.
func runTLPEquiv(t *testing.T, cfg TLPConfig, stream []prefetch.Access) {
	t.Helper()
	tl := NewTLP(cfg)
	ref := newRefTLP(tl.cfg)
	var got, want []addr.BlockNum
	for k, a := range stream {
		tl.Train(a)
		ref.train(a)
		for _, p := range []addr.PageNum{a.Page(), stream[(k*7+3)%len(stream)].Page()} {
			gn, gt, gok := tl.BestNeighbor(p)
			wn, wt, wok := ref.bestNeighbor(p)
			if gn != wn || gt != wt || gok != wok {
				t.Fatalf("step %d BestNeighbor(%#x): SoA (%#x, %s, %v), reference (%#x, %s, %v)",
					k, uint64(p), uint64(gn), gt, gok, uint64(wn), wt, wok)
			}
		}
		got = tl.IssueTo(a, got[:0])
		want = ref.issueTo(a, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("step %d IssueTo: SoA %v, reference %v", k, got, want)
		}
		if tl.Issues() != ref.issues {
			t.Fatalf("step %d Issues: SoA %d, reference %d", k, tl.Issues(), ref.issues)
		}
	}
}

// decodeTLPStream turns bytes into accesses, four bytes per access: the page
// as an offset into a 256-page window above base (so neighbours exist and
// entries churn), the channel and segment offset, a cycle step whose top
// values repeat the clock (LRU ties) or run it backwards (traces do not
// guarantee order), and the miss flag.
func decodeTLPStream(base addr.PageNum, ops []byte) []prefetch.Access {
	var stream []prefetch.Access
	cycle := uint64(1 << 20)
	for i := 0; i+4 <= len(ops); i += 4 {
		switch d := ops[i+2]; {
		case d >= 240:
			cycle -= uint64(d - 239) // backwards
		case d >= 224:
			// repeat the cycle: an LRU tie
		default:
			cycle += uint64(d)
		}
		page := base + addr.PageNum(ops[i])
		stream = append(stream, prefetch.Access{
			Block: page.Block(addr.OffsetOf(int(ops[i+1]>>4)&3, int(ops[i+1]&15))),
			Cycle: cycle,
			Miss:  ops[i+3]&3 != 0,
		})
	}
	return stream
}

// tlpEquivConfigs covers eviction churn (4 entries), the production shape,
// a one-page window, the paper's 64-page window and thresholds that reach
// (and overflow) every page distance.
var tlpEquivConfigs = []struct {
	name string
	cfg  TLPConfig
}{
	{"rpt4", TLPConfig{RPTEntries: 4, DistThreshold: 64, MinCommon: 2}},
	{"default", DefaultTLPConfig()},
	{"dist1", TLPConfig{RPTEntries: 16, DistThreshold: 1, MinCommon: 1}},
	{"dist64", TLPConfig{RPTEntries: 32, DistThreshold: 64, MinCommon: 3}},
	{"dist2^62", TLPConfig{RPTEntries: 8, DistThreshold: 1 << 62, MinCommon: 1}},
	{"distmax-1", TLPConfig{RPTEntries: 8, DistThreshold: math.MaxUint64 - 1, MinCommon: 1}},
	{"distmax", TLPConfig{RPTEntries: 8, DistThreshold: math.MaxUint64, MinCommon: 2}},
}

// tlpEquivBases places the page window at page 0, straddling 2^36 (the
// paper's page-tag width) and at the top of the page space a block number
// can address.
var tlpEquivBases = []addr.PageNum{0, 1<<36 - 128, 1<<58 - 256}

// TestTLPMatchesReference is the property test: seeded random streams over
// every configuration and base page.
func TestTLPMatchesReference(t *testing.T) {
	for ci, c := range tlpEquivConfigs {
		for bi, base := range tlpEquivBases {
			t.Run(fmt.Sprintf("%s/base%#x", c.name, uint64(base)), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(ci*len(tlpEquivBases) + bi)))
				ops := make([]byte, 4*6000)
				rng.Read(ops)
				// Narrow every other page delta so footprints accumulate
				// and neighbours clear MinCommon.
				for i := 0; i < len(ops); i += 8 {
					ops[i] &= 15
				}
				runTLPEquiv(t, c.cfg, decodeTLPStream(base, ops))
			})
		}
	}
}

// FuzzTLPEquivalence lets the fuzzer hunt for access streams that split the
// SoA TLP from the reference. Run with
//
//	go test -fuzz=FuzzTLPEquivalence ./internal/core/
func FuzzTLPEquivalence(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{0, 1, 5, 1, 1, 1, 5, 1, 0, 2, 5, 1, 1, 2, 5, 1, 0, 3, 5, 1, 1, 3, 5, 1})
	f.Add(uint8(2), uint8(1), []byte{3, 4, 250, 1, 3, 5, 230, 1, 4, 4, 7, 1, 4, 5, 0, 1})
	f.Add(uint8(6), uint8(2), []byte{255, 0, 1, 1, 0, 0, 1, 1, 128, 0, 241, 0, 255, 1, 1, 1})
	f.Fuzz(func(t *testing.T, cfgSel, baseSel uint8, ops []byte) {
		if len(ops) > 4*2048 {
			ops = ops[:4*2048]
		}
		stream := decodeTLPStream(tlpEquivBases[int(baseSel)%len(tlpEquivBases)], ops)
		if len(stream) == 0 {
			return
		}
		runTLPEquiv(t, tlpEquivConfigs[int(cfgSel)%len(tlpEquivConfigs)].cfg, stream)
	})
}
