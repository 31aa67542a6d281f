package addr

import (
	"testing"
	"testing/quick"
)

func TestGeometryConstants(t *testing.T) {
	if BlocksPerPage != 64 {
		t.Fatalf("BlocksPerPage = %d, want 64", BlocksPerPage)
	}
	if SegmentBlocks != 16 {
		t.Fatalf("SegmentBlocks = %d, want 16", SegmentBlocks)
	}
	if Channels != 4 {
		t.Fatalf("Channels = %d, want 4", Channels)
	}
}

func TestAlign(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{4095, 4032},
		{4096, 4096},
	}
	for _, c := range cases {
		if got := c.in.Align(); got != c.want {
			t.Errorf("Addr(%d).Align() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestBlockPageOffset(t *testing.T) {
	a := Addr(0x12345678)
	b := a.Block()
	if got := b.Addr(); got != a.Align() {
		t.Errorf("round trip: got %#x want %#x", got, a.Align())
	}
	if b.Page() != a.Page() {
		t.Errorf("page mismatch: block %v addr %v", b.Page(), a.Page())
	}
	if b.Offset() != a.Offset() {
		t.Errorf("offset mismatch: %d vs %d", b.Offset(), a.Offset())
	}
}

func TestChannelMapping(t *testing.T) {
	p := PageNum(7)
	for off := 0; off < BlocksPerPage; off++ {
		b := p.Block(off)
		wantCh := off / SegmentBlocks
		if b.Channel() != wantCh {
			t.Errorf("offset %d: channel %d, want %d", off, b.Channel(), wantCh)
		}
		if b.SegOffset() != off%SegmentBlocks {
			t.Errorf("offset %d: segOffset %d, want %d", off, b.SegOffset(), off%SegmentBlocks)
		}
	}
}

func TestSegmentOfInverse(t *testing.T) {
	for off := 0; off < BlocksPerPage; off++ {
		ch, so := SegmentOf(off)
		if got := OffsetOf(ch, so); got != off {
			t.Errorf("OffsetOf(SegmentOf(%d)) = %d", off, got)
		}
	}
}

func TestPageDistance(t *testing.T) {
	if d := PageNum(10).Distance(PageNum(3)); d != 7 {
		t.Errorf("Distance = %d, want 7", d)
	}
	if d := PageNum(3).Distance(PageNum(10)); d != 7 {
		t.Errorf("Distance = %d, want 7", d)
	}
	if d := PageNum(5).Distance(PageNum(5)); d != 0 {
		t.Errorf("Distance = %d, want 0", d)
	}
}

// Property: block number round-trips through (page, offset) decomposition.
func TestBlockRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		b := BlockNum(raw >> 8) // keep addresses in a plausible range
		return b.Page().Block(b.Offset()) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Addr → Block → Addr is identity on aligned addresses.
func TestAddrBlockRoundTripProperty(t *testing.T) {
	f := func(raw uint64) bool {
		a := Addr(raw).Align()
		return a.Block().Addr() == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDRAMGeometryMap(t *testing.T) {
	g := DefaultDRAMGeometry()
	// Blocks within one channel segment of one page share a row and bank
	// and occupy consecutive columns.
	p := PageNum(0x1234)
	first := g.Map(p.Block(0))
	for so := 1; so < SegmentBlocks; so++ {
		c := g.Map(p.Block(so))
		if c.Bank != first.Bank || c.Row != first.Row {
			t.Fatalf("segment not row-local: off %d → %+v vs %+v", so, c, first)
		}
		if c.Col != first.Col+so {
			t.Fatalf("columns not consecutive: off %d col %d (first %d)", so, c.Col, first.Col)
		}
	}
}

func TestDRAMGeometryDistinctRows(t *testing.T) {
	g := DefaultDRAMGeometry()
	// Pages far apart should not collide on (bank,row) for the same segment offset.
	seen := map[[2]uint64]PageNum{}
	collisions := 0
	for p := PageNum(0); p < 4096; p++ {
		c := g.Map(p.Block(0))
		key := [2]uint64{uint64(c.Bank), c.Row}
		if _, ok := seen[key]; ok {
			collisions++
		}
		seen[key] = p
	}
	// 4096 pages over 8 banks × many rows: with a 2 KB row holding 2
	// page-segments per channel, about half the pages must share (bank,row)
	// with a predecessor, but not all of them.
	if collisions == 0 || collisions == 4095 {
		t.Fatalf("implausible collision count %d", collisions)
	}
}

func TestDRAMGeometryZeroValueUsable(t *testing.T) {
	var g DRAMGeometry // zero value falls back to default geometry
	c := g.Map(PageNum(1).Block(3))
	d := DefaultDRAMGeometry().Map(PageNum(1).Block(3))
	if c != d {
		t.Fatalf("zero-value map %+v != default %+v", c, d)
	}
}

// Property: channel extraction is consistent between Addr and BlockNum paths.
func TestChannelConsistencyProperty(t *testing.T) {
	f := func(raw uint64) bool {
		b := BlockNum(raw >> 10)
		ch, _ := SegmentOf(b.Offset())
		return b.Channel() == ch
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
