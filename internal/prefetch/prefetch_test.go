package prefetch

import (
	"testing"

	"repro/internal/addr"
)

func TestNoneBaseline(t *testing.T) {
	var p None
	if p.Name() != "none" || p.StorageBits() != 0 {
		t.Fatal("None metadata wrong")
	}
	p.Train(Access{})
	if got := p.Issue(Access{Miss: true}); got != nil {
		t.Fatalf("None issued %v", got)
	}
	p.Reset()
}

func TestNextLine(t *testing.T) {
	p := NewNextLine(2)
	page := addr.PageNum(10)
	a := Access{Block: page.Block(addr.OffsetOf(1, 3)), Miss: true}
	got := p.Issue(a)
	if len(got) != 2 {
		t.Fatalf("Issue returned %v", got)
	}
	if got[0] != page.Block(addr.OffsetOf(1, 4)) || got[1] != page.Block(addr.OffsetOf(1, 5)) {
		t.Fatalf("wrong targets %v", got)
	}
	// Targets stay on the same channel.
	for _, b := range got {
		if b.Channel() != 1 {
			t.Fatalf("target %v crossed channel", b)
		}
	}
	// No issue on hits.
	if p.Issue(Access{Block: a.Block, Miss: false}) != nil {
		t.Fatal("issued on hit")
	}
	// Clipped at segment end.
	edge := Access{Block: page.Block(addr.OffsetOf(1, 15)), Miss: true}
	if got := p.Issue(edge); len(got) != 0 {
		t.Fatalf("segment-edge issue %v", got)
	}
}

func TestStrideLearnsAndIssues(t *testing.T) {
	p := NewStride(64, 2)
	page := addr.PageNum(42)
	// Stride of 2 within channel 0: offsets 0,2,4,6 confirm the stride.
	var last Access
	for _, off := range []int{0, 2, 4, 6} {
		last = Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(last)
	}
	got := p.Issue(last)
	if len(got) != 2 {
		t.Fatalf("Issue = %v, want 2 targets", got)
	}
	if got[0] != page.Block(addr.OffsetOf(0, 8)) || got[1] != page.Block(addr.OffsetOf(0, 10)) {
		t.Fatalf("targets %v", got)
	}
}

func TestStrideNoIssueWithoutConfidence(t *testing.T) {
	p := NewStride(64, 2)
	page := addr.PageNum(42)
	// Irregular deltas never build confidence.
	for _, off := range []int{0, 5, 1, 9, 2} {
		a := Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(a)
		if got := p.Issue(a); got != nil {
			t.Fatalf("issued %v on irregular pattern", got)
		}
	}
}

func TestStrideReset(t *testing.T) {
	p := NewStride(64, 2)
	page := addr.PageNum(42)
	var last Access
	for _, off := range []int{0, 2, 4, 6} {
		last = Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(last)
	}
	p.Reset()
	if got := p.Issue(last); got != nil {
		t.Fatalf("issued %v after Reset", got)
	}
}

func TestStrideStorage(t *testing.T) {
	if NewStride(64, 2).StorageBits() <= 0 {
		t.Fatal("stride storage must be positive")
	}
}
