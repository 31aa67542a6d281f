package spp

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/prefetch"
)

func access(p addr.PageNum, ch, off int, miss bool) prefetch.Access {
	return prefetch.Access{Block: p.Block(addr.OffsetOf(ch, off)), Miss: miss}
}

func TestSignatureUpdateDistinguishesDeltas(t *testing.T) {
	s1 := sigUpdate(0, 1)
	s2 := sigUpdate(0, 2)
	if s1 == s2 {
		t.Fatal("different deltas produced the same signature")
	}
	if sigUpdate(s1, 3) == sigUpdate(s2, 3) {
		t.Fatal("signature lost its history after one step")
	}
}

func TestLearnsStridePattern(t *testing.T) {
	s := New(DefaultConfig())
	// Train the delta-1 path on many pages so the pattern table counters
	// build confidence.
	for p := addr.PageNum(0); p < 50; p++ {
		for off := 0; off < 8; off++ {
			s.Train(access(p, 0, off, true))
		}
	}
	// A fresh page starting the same walk should get lookahead targets.
	p := addr.PageNum(999)
	s.Train(access(p, 0, 0, true))
	s.Train(access(p, 0, 1, true))
	got := s.Issue(access(p, 0, 1, true))
	if len(got) == 0 {
		t.Fatal("no prefetches for a well-learned stride")
	}
	want := p.Block(addr.OffsetOf(0, 2))
	if got[0] != want {
		t.Fatalf("first target %v, want %v", got[0], want)
	}
	// Lookahead should go deeper than one block on a confident path.
	if len(got) < 2 {
		t.Fatalf("lookahead depth %d, want >= 2", len(got))
	}
}

func TestConfidenceDecaysLookahead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Threshold = 0.9 // very strict: compound confidence dies quickly
	s := New(cfg)
	for p := addr.PageNum(0); p < 50; p++ {
		for off := 0; off < 8; off++ {
			s.Train(access(p, 0, off, true))
		}
	}
	p := addr.PageNum(999)
	s.Train(access(p, 0, 0, true))
	s.Train(access(p, 0, 1, true))
	strict := len(s.Issue(access(p, 0, 1, true)))

	cfg.Threshold = 0.1
	s2 := New(cfg)
	for p := addr.PageNum(0); p < 50; p++ {
		for off := 0; off < 8; off++ {
			s2.Train(access(p, 0, off, true))
		}
	}
	s2.Train(access(p, 0, 0, true))
	s2.Train(access(p, 0, 1, true))
	loose := len(s2.Issue(access(p, 0, 1, true)))
	if strict > loose {
		t.Fatalf("strict threshold issued more (%d) than loose (%d)", strict, loose)
	}
}

func TestStopsAtSegmentBoundary(t *testing.T) {
	s := New(DefaultConfig())
	for p := addr.PageNum(0); p < 50; p++ {
		for off := 0; off < addr.SegmentBlocks; off++ {
			s.Train(access(p, 0, off, true))
		}
	}
	p := addr.PageNum(777)
	s.Train(access(p, 0, 13, true))
	s.Train(access(p, 0, 14, true))
	got := s.Issue(access(p, 0, 14, true))
	for _, b := range got {
		if b.Page() != p {
			t.Fatalf("prefetch %v crossed the page boundary", b)
		}
		if b.Channel() != 0 {
			t.Fatalf("prefetch %v crossed the channel", b)
		}
	}
	if len(got) > 1 {
		t.Fatalf("issued %d targets past offset 15", len(got))
	}
}

func TestIrregularStreamLessCoveredThanRegular(t *testing.T) {
	// SPP keeps issuing on irregular traffic (that is exactly the excess
	// traffic the Planaria paper measures), but its lookahead depth per
	// access must be clearly lower than on a perfectly regular stream.
	irregular := New(DefaultConfig())
	x := uint32(2463534242)
	issuedIrr := 0
	const n = 5000
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		p := addr.PageNum(x % 64)
		off := int(x>>8) % addr.SegmentBlocks
		a := access(p, 0, off, true)
		irregular.Train(a)
		issuedIrr += len(irregular.Issue(a))
	}

	regular := New(DefaultConfig())
	issuedReg := 0
	for i := 0; i < n; i++ {
		p := addr.PageNum(i / addr.SegmentBlocks)
		a := access(p, 0, i%addr.SegmentBlocks, true)
		regular.Train(a)
		issuedReg += len(regular.Issue(a))
	}
	if issuedIrr >= issuedReg {
		t.Fatalf("irregular stream issued %d >= regular %d", issuedIrr, issuedReg)
	}
}

func TestColdPageNoIssue(t *testing.T) {
	s := New(DefaultConfig())
	if got := s.Issue(access(5, 0, 3, true)); got != nil {
		t.Fatalf("cold page issued %v", got)
	}
}

func TestReset(t *testing.T) {
	s := New(DefaultConfig())
	for p := addr.PageNum(0); p < 50; p++ {
		for off := 0; off < 8; off++ {
			s.Train(access(p, 0, off, true))
		}
	}
	s.Reset()
	p := addr.PageNum(999)
	s.Train(access(p, 0, 0, true))
	s.Train(access(p, 0, 1, true))
	if got := s.Issue(access(p, 0, 1, true)); len(got) != 0 {
		t.Fatalf("issued %v after Reset", got)
	}
}

func TestCounterSaturationRenormalises(t *testing.T) {
	s := New(DefaultConfig())
	// Hammer one signature far past saturation; counters must stay within
	// 4-bit bounds and the prefetcher must keep working.
	for p := addr.PageNum(0); p < 400; p++ {
		for off := 0; off < 4; off++ {
			s.Train(access(p, 0, off, true))
		}
	}
	for _, pe := range s.pt {
		if pe.cSig > maxCtr {
			t.Fatalf("cSig %d exceeds 4-bit max", pe.cSig)
		}
		for _, d := range pe.deltas {
			if d.ctr > maxCtr {
				t.Fatalf("delta ctr %d exceeds 4-bit max", d.ctr)
			}
		}
	}
}

func TestStorageBits(t *testing.T) {
	s := New(DefaultConfig())
	if s.StorageBits() <= 0 {
		t.Fatal("storage must be positive")
	}
	if s.Name() != "spp" {
		t.Fatal("name")
	}
}

// BenchmarkSPPTrainIssue drives SPP the way the engine does — Train, then
// IssueTo into one reused buffer — over page walks of delta 1 and delta 2,
// so signature paths build confidence and triggers issue lookahead
// prefetches. BENCH_baseline.json pins it allocation-free.
func BenchmarkSPPTrainIssue(b *testing.B) {
	var accs []prefetch.Access
	for p := addr.PageNum(0); p < 1024; p++ {
		d := 1 + int(p)%2
		for off := 0; off < addr.SegmentBlocks; off += d {
			accs = append(accs, access(p, int(p)%addr.Channels, off, true))
		}
	}
	pf := New(DefaultConfig())
	dst := make([]addr.BlockNum, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i%len(accs)]
		pf.Train(a)
		dst = pf.IssueTo(a, dst[:0])
	}
}
