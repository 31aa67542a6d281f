package core

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/prefetch"
)

func trainPage(t *TLP, p addr.PageNum, offs []int, cycle uint64) uint64 {
	for _, o := range offs {
		t.Train(acc(p, 0, o, cycle, true))
		cycle++
	}
	return cycle
}

func TestTLPTransfersFromSimilarNeighbor(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	// Neighbour page 0x100 has the full footprint.
	trainPage(tl, 0x100, []int{1, 2, 3, 4, 5, 6}, 0)
	// Page 0x110 (distance 16 ≤ 64) shares the first four blocks.
	trainPage(tl, 0x110, []int{1, 2, 3, 4}, 100)

	nb, transfer, ok := tl.BestNeighbor(0x110)
	if !ok {
		t.Fatal("no neighbour found")
	}
	if nb != 0x100 {
		t.Fatalf("neighbour = %#x, want 0x100", uint64(nb))
	}
	want := bitmap.Seg16(0).Set(5).Set(6)
	if transfer != want {
		t.Fatalf("transfer %s, want %s", transfer, want)
	}

	got := tl.Issue(acc(0x110, 0, 4, 200, true))
	if len(got) != 2 {
		t.Fatalf("Issue = %v", got)
	}
	wantBlocks := map[addr.BlockNum]bool{
		addr.PageNum(0x110).Block(addr.OffsetOf(0, 5)): true,
		addr.PageNum(0x110).Block(addr.OffsetOf(0, 6)): true,
	}
	for _, b := range got {
		if !wantBlocks[b] {
			t.Fatalf("unexpected target %v", b)
		}
	}
}

func TestTLPPicksMostSimilarNeighbor(t *testing.T) {
	// Figure 6: page A learns from B (6 common blocks), not C (3 common).
	tl := NewTLP(DefaultTLPConfig())
	b := addr.PageNum(0x100)
	c := addr.PageNum(0x120)
	a := addr.PageNum(0x110)
	trainPage(tl, b, []int{0, 1, 2, 3, 4, 5, 8}, 0) // B
	trainPage(tl, c, []int{0, 1, 2, 9}, 100)        // C
	trainPage(tl, a, []int{0, 1, 2, 3, 4, 5}, 200)  // A shares 6 with B, 3 with C

	nb, transfer, ok := tl.BestNeighbor(a)
	if !ok || nb != b {
		t.Fatalf("neighbour = %#x (ok=%v), want B=0x100", uint64(nb), ok)
	}
	if transfer != bitmap.Seg16(0).Set(8) {
		t.Fatalf("transfer %s, want only block 8", transfer)
	}
}

func TestTLPRespectsDistanceThreshold(t *testing.T) {
	cfg := DefaultTLPConfig()
	cfg.DistThreshold = 4
	tl := NewTLP(cfg)
	trainPage(tl, 0x100, []int{1, 2, 3, 4, 5}, 0)
	trainPage(tl, 0x200, []int{1, 2, 3, 4}, 100) // distance 256 > 4
	if _, _, ok := tl.BestNeighbor(0x200); ok {
		t.Fatal("far page accepted as neighbour")
	}
	trainPage(tl, 0x102, []int{1, 2, 3, 4}, 200) // distance 2 ≤ 4
	if _, _, ok := tl.BestNeighbor(0x102); !ok {
		t.Fatal("near page rejected")
	}
}

func TestTLPRequiresMinCommonBits(t *testing.T) {
	cfg := DefaultTLPConfig()
	cfg.MinCommon = 4
	tl := NewTLP(cfg)
	trainPage(tl, 0x100, []int{1, 2, 3, 4, 5, 6}, 0)
	trainPage(tl, 0x101, []int{1, 2}, 100) // only 2 common bits
	if _, _, ok := tl.BestNeighbor(0x101); ok {
		t.Fatal("dissimilar page accepted")
	}
	trainPage(tl, 0x101, []int{3}, 150) // 3 common bits, one short
	if _, _, ok := tl.BestNeighbor(0x101); ok {
		t.Fatal("page sharing 3 bits accepted")
	}
	trainPage(tl, 0x101, []int{4}, 200) // now 4 common bits
	if _, _, ok := tl.BestNeighbor(0x101); !ok {
		t.Fatal("similar page rejected")
	}
}

func TestTLPNoTransferWhenNothingNew(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	trainPage(tl, 0x100, []int{1, 2, 3}, 0)
	trainPage(tl, 0x101, []int{1, 2, 3, 4}, 100) // superset of neighbour
	if _, _, ok := tl.BestNeighbor(0x101); ok {
		t.Fatal("transfer offered with no surplus blocks")
	}
}

func TestTLPNoIssueOnHit(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	trainPage(tl, 0x100, []int{1, 2, 3, 4, 5, 6}, 0)
	trainPage(tl, 0x110, []int{1, 2, 3, 4}, 100)
	if got := tl.Issue(acc(0x110, 0, 4, 200, false)); got != nil {
		t.Fatalf("issued %v on a hit", got)
	}
}

func TestTLPEvictionRecyclesLRU(t *testing.T) {
	cfg := DefaultTLPConfig()
	cfg.RPTEntries = 4
	tl := NewTLP(cfg)
	for i := 0; i < 6; i++ {
		// Shared base footprint {1,2,3} plus a page-specific block so
		// every pair has a surplus to transfer.
		trainPage(tl, addr.PageNum(0x100+i), []int{1, 2, 3, 4, 8 + i}, uint64(i*100))
	}
	// The first two pages were evicted; their index entries must be gone.
	if _, ok := tl.rpt.idx.Get(0x100); ok {
		t.Fatal("evicted page still indexed")
	}
	// The last four are resident.
	for i := 2; i < 6; i++ {
		if _, ok := tl.rpt.idx.Get(uint64(0x100 + i)); !ok {
			t.Fatalf("recent page 0x%x missing", 0x100+i)
		}
	}
	// Ref bits of survivors must not point at stale slots incorrectly:
	// every surviving pair within distance 64 must see each other.
	for i := 2; i < 6; i++ {
		p := addr.PageNum(0x100 + i)
		if _, _, ok := tl.BestNeighbor(p); !ok {
			t.Fatalf("page 0x%x lost its neighbours after eviction churn", 0x100+i)
		}
	}
}

func TestTLPReset(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	trainPage(tl, 0x100, []int{1, 2, 3, 4, 5, 6}, 0)
	trainPage(tl, 0x110, []int{1, 2, 3, 4}, 100)
	tl.Reset()
	if _, _, ok := tl.BestNeighbor(0x110); ok {
		t.Fatal("neighbour knowledge survived Reset")
	}
	if tl.Issues() != 0 {
		t.Fatal("issue counter survived Reset")
	}
}

func TestTLPStorageBits(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	// 128 × (36 + 16 + 16 + 1 + 127) bits.
	want := 128 * (36 + 16 + 16 + 1 + 127)
	if got := tl.StorageBits(); got != want {
		t.Fatalf("StorageBits = %d, want %d", got, want)
	}
}

var _ = prefetch.Prefetcher(nil)
