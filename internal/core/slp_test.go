package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/prefetch"
)

func acc(p addr.PageNum, ch, off int, cycle uint64, miss bool) prefetch.Access {
	return prefetch.Access{Block: p.Block(addr.OffsetOf(ch, off)), Cycle: cycle, Miss: miss}
}

// trainSnapshot feeds SLP a page footprint and lets the AT entry time out so
// the snapshot lands in the PT.
func trainSnapshot(s *SLP, p addr.PageNum, offs []int, start uint64) uint64 {
	cycle := start
	for _, o := range offs {
		s.Train(acc(p, 0, o, cycle, true))
		cycle += 10
	}
	// Advance time past the timeout with traffic on another page so the
	// sweep sees the expiry.
	cycle += s.cfg.Timeout + 1
	other := p + 100000
	for i := 0; i < s.cfg.ATEntries+4; i++ {
		s.Train(acc(other, 0, i%16, cycle, true))
		cycle++
	}
	return cycle
}

func TestSLPFilterBlocksSmallSnapshots(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(10)
	// Two distinct offsets: below the 3-offset promotion threshold.
	s.Train(acc(p, 0, 1, 0, true))
	s.Train(acc(p, 0, 2, 10, true))
	promos, _, _ := s.Counters()
	if promos != 0 {
		t.Fatalf("premature promotion after 2 offsets")
	}
	// Third distinct offset promotes.
	s.Train(acc(p, 0, 3, 20, true))
	promos, _, _ = s.Counters()
	if promos != 1 {
		t.Fatalf("promotions = %d, want 1", promos)
	}
}

func TestSLPRepeatedOffsetDoesNotPromote(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(10)
	for i := 0; i < 10; i++ {
		s.Train(acc(p, 0, 5, uint64(i*10), true))
	}
	promos, _, _ := s.Counters()
	if promos != 0 {
		t.Fatal("repeated single offset promoted")
	}
}

func TestSLPSnapshotCaptureAndIssue(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(77)
	offs := []int{1, 4, 7, 9}
	cycle := trainSnapshot(s, p, offs, 0)

	bits, ok := s.Pattern(p)
	if !ok {
		t.Fatal("snapshot not captured in PT")
	}
	want := bitmap.Seg16(0)
	for _, o := range offs {
		want = want.Set(o)
	}
	if bits != want {
		t.Fatalf("pattern %s, want %s", bits, want)
	}

	// A later miss on the page prefetches the rest of the snapshot.
	got := s.Issue(acc(p, 0, 4, cycle, true))
	if len(got) != 3 {
		t.Fatalf("Issue = %v, want 3 targets", got)
	}
	wantTargets := map[addr.BlockNum]bool{
		p.Block(addr.OffsetOf(0, 1)): true,
		p.Block(addr.OffsetOf(0, 7)): true,
		p.Block(addr.OffsetOf(0, 9)): true,
	}
	for _, b := range got {
		if !wantTargets[b] {
			t.Fatalf("unexpected target %v", b)
		}
	}
}

func TestSLPNoIssueOnHit(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(77)
	cycle := trainSnapshot(s, p, []int{1, 4, 7}, 0)
	if got := s.Issue(acc(p, 0, 4, cycle, false)); got != nil {
		t.Fatalf("issued %v on a hit", got)
	}
}

func TestSLPNoIssueWithoutHistory(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	if got := s.Issue(acc(12345, 0, 4, 0, true)); got != nil {
		t.Fatalf("cold SLP issued %v", got)
	}
	if s.HasMetadata(12345) {
		t.Fatal("HasMetadata true for unseen page")
	}
}

func TestSLPHasMetadata(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(77)
	trainSnapshot(s, p, []int{1, 4, 7}, 0)
	if !s.HasMetadata(p) {
		t.Fatal("HasMetadata false after snapshot capture")
	}
}

func TestSLPATCapacityEvictionCaptures(t *testing.T) {
	cfg := DefaultSLPConfig()
	cfg.ATEntries = 2
	cfg.Timeout = 1 << 62 // effectively no timeout: force capacity path
	s := NewSLP(cfg)
	// Three pages each promoted (3 offsets): the third promotion evicts
	// the oldest AT entry into the PT.
	for pi, p := range []addr.PageNum{1, 2, 3} {
		base := uint64(pi * 100)
		s.Train(acc(p, 0, 1, base, true))
		s.Train(acc(p, 0, 2, base+1, true))
		s.Train(acc(p, 0, 3, base+2, true))
	}
	if _, ok := s.Pattern(1); !ok {
		t.Fatal("capacity eviction did not capture the snapshot")
	}
	_, snaps, _ := s.Counters()
	if snaps != 1 {
		t.Fatalf("snapshots = %d, want 1", snaps)
	}
}

func TestSLPTimeoutSeparatesEpochs(t *testing.T) {
	// Blocks accessed long after the snapshot timed out start a fresh
	// accumulation rather than polluting the old snapshot.
	cfg := DefaultSLPConfig()
	cfg.Timeout = 100
	s := NewSLP(cfg)
	p := addr.PageNum(5)
	s.Train(acc(p, 0, 1, 0, true))
	s.Train(acc(p, 0, 2, 5, true))
	s.Train(acc(p, 0, 3, 10, true))
	// Let it expire via sweep traffic.
	c := uint64(500)
	for i := 0; i < s.cfg.ATEntries+4; i++ {
		s.Train(acc(addr.PageNum(90000), 0, i%16, c, true))
		c++
	}
	bits, ok := s.Pattern(p)
	if !ok {
		t.Fatal("snapshot missing")
	}
	if bits.Count() != 3 {
		t.Fatalf("snapshot has %d bits, want 3", bits.Count())
	}
}

func TestSLPResetClearsEverything(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	p := addr.PageNum(77)
	trainSnapshot(s, p, []int{1, 4, 7}, 0)
	s.Reset()
	if s.HasMetadata(p) {
		t.Fatal("metadata survived Reset")
	}
	promos, snaps, issues := s.Counters()
	if promos != 0 || snaps != 0 || issues != 0 {
		t.Fatal("counters survived Reset")
	}
}

func TestSLPStorageBudgetMatchesPaper(t *testing.T) {
	// Four channels of default SLP+TLP must land in the neighbourhood of
	// the paper's 345.2 KB (we accept 250–450 KB; EXPERIMENTS.md records
	// the exact value).
	total := 0
	for ch := 0; ch < addr.Channels; ch++ {
		p := New(DefaultConfig())
		total += p.StorageBits()
	}
	kb := float64(total) / 8 / 1024
	if kb < 250 || kb > 450 {
		t.Fatalf("storage = %.1f KB, outside the plausible band around 345.2 KB", kb)
	}
}

// TestSLPRetrainsAfterPhaseChange drives the Section 3.2 retraining path
// directly: a page's footprint flips entirely; after one full visit under
// the new footprint (plus the accumulation timeout), the PT holds the new
// pattern instead of the stale one.
func TestSLPRetrainsAfterPhaseChange(t *testing.T) {
	cfg := DefaultSLPConfig()
	cfg.Timeout = 100
	s := NewSLP(cfg)
	p := addr.PageNum(33)
	cycle := trainSnapshot(s, p, []int{1, 2, 3}, 0)
	old, ok := s.Pattern(p)
	if !ok {
		t.Fatal("no pattern after first phase")
	}
	// Phase change: entirely different footprint.
	cycle = trainSnapshot(s, p, []int{10, 11, 12, 13}, cycle)
	now, ok := s.Pattern(p)
	if !ok {
		t.Fatal("pattern lost after phase change")
	}
	if now == old {
		t.Fatal("PT still holds the stale snapshot")
	}
	want := bitmap.Seg16(0).Set(10).Set(11).Set(12).Set(13)
	if now != want {
		t.Fatalf("retrained pattern %s, want %s", now, want)
	}
}

func TestSLPFTEvictionDropsStalest(t *testing.T) {
	cfg := DefaultSLPConfig()
	cfg.FTEntries = 2
	s := NewSLP(cfg)
	s.Train(acc(1, 0, 0, 0, true))  // page 1 @ t=0
	s.Train(acc(2, 0, 0, 10, true)) // page 2 @ t=10
	s.Train(acc(3, 0, 0, 20, true)) // page 3 evicts page 1 (stalest)
	// Page 2 must still accumulate.
	s.Train(acc(2, 0, 1, 30, true))
	s.Train(acc(2, 0, 2, 40, true))
	promos, _, _ := s.Counters()
	if promos != 1 {
		t.Fatalf("page 2 lost its FT entry: promotions = %d", promos)
	}
}
