package bitmap

import (
	"testing"
	"testing/quick"
)

func TestSeg16Basics(t *testing.T) {
	var b Seg16
	b = b.Set(0).Set(5).Set(15)
	if !b.Has(0) || !b.Has(5) || !b.Has(15) {
		t.Fatalf("missing set bits in %s", b)
	}
	if b.Has(1) {
		t.Fatal("unexpected bit 1")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b = b.Clear(5)
	if b.Has(5) || b.Count() != 2 {
		t.Fatalf("Clear failed: %s", b)
	}
}

func TestSeg16SetOutOfRangeWraps(t *testing.T) {
	// Offsets are masked to 4 bits; 16 aliases 0. This mirrors hardware
	// truncation of the segment offset field.
	b := Seg16(0).Set(16)
	if !b.Has(0) {
		t.Fatal("Set(16) should alias Set(0)")
	}
}

func TestSeg16SimilarityOps(t *testing.T) {
	a := Seg16(0).Set(1).Set(2).Set(3)
	b := Seg16(0).Set(2).Set(3).Set(4)
	if got := a.Common(b); got != 2 {
		t.Errorf("Common = %d, want 2", got)
	}
	if got := a.Diff(b); got != 2 {
		t.Errorf("Diff = %d, want 2", got)
	}
	if got := a.Minus(b); got != Seg16(0).Set(1) {
		t.Errorf("Minus = %s", got)
	}
}

func TestSeg16Offsets(t *testing.T) {
	b := Seg16(0).Set(3).Set(0).Set(9)
	got := b.Offsets()
	want := []int{0, 3, 9}
	if len(got) != len(want) {
		t.Fatalf("Offsets = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Offsets = %v, want %v", got, want)
		}
	}
}

func TestOverlapRate(t *testing.T) {
	prev := Seg16(0).Set(1).Set(2).Set(3).Set(4)
	cur := Seg16(0).Set(2).Set(3).Set(4).Set(5)
	if got := cur.OverlapRate(prev); got != 0.75 {
		t.Errorf("OverlapRate = %v, want 0.75", got)
	}
	if got := Seg16(0).OverlapRate(prev); got != 1 {
		t.Errorf("empty window OverlapRate = %v, want 1", got)
	}
}

// Properties over both widths.

func TestSeg16Properties(t *testing.T) {
	// Count(a|b) + Count(a&b) == Count(a) + Count(b)
	f := func(a, b uint16) bool {
		x, y := Seg16(a), Seg16(b)
		return (x|y).Count()+x.Common(y) == x.Count()+y.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Diff is symmetric and Diff(a,a)==0.
	g := func(a, b uint16) bool {
		x, y := Seg16(a), Seg16(b)
		return x.Diff(y) == y.Diff(x) && x.Diff(x) == 0
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Minus removes exactly the common bits.
	h := func(a, b uint16) bool {
		x, y := Seg16(a), Seg16(b)
		return x.Minus(y).Count() == x.Count()-x.Common(y)
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestPage64Properties(t *testing.T) {
	// Offsets reconstructs the bitmap.
	k := func(v uint64) bool {
		b := Page64(v)
		return FromOffsets(b.Offsets()...) == b
	}
	if err := quick.Check(k, nil); err != nil {
		t.Error(err)
	}
}

func TestOverlapRateBounds(t *testing.T) {
	f := func(a, b uint64) bool {
		r := Page64(a).OverlapRate(Page64(b))
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
