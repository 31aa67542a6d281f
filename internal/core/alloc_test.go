package core

import (
	"testing"

	"repro/internal/addr"
)

// The steady-state allocation gates: once warm, the composite and both
// sub-prefetchers train, issue (through IssueTo with a reused buffer) and
// peek without allocating at all. These are strict zero gates — the hot
// path's indices are open-addressing tables and its buffers persist, so
// any allocation is a regression, not noise.

// churn drives pf through a deterministic mix of pages wide enough to
// exercise table eviction and neighbour matching, reusing one candidate
// buffer like the engine does.
func churn(pf trainIssuer, rounds int, dst []addr.BlockNum) []addr.BlockNum {
	cycle := uint64(0)
	for r := 0; r < rounds; r++ {
		for pg := 0; pg < 40; pg++ {
			p := addr.PageNum(0x100 + pg*3)
			for _, off := range []int{1, 2, 5, 9, 12} {
				a := acc(p, 0, off, cycle, true)
				pf.Train(a)
				dst = pf.IssueTo(a, dst[:0])
				cycle += 7
			}
		}
	}
	return dst
}

func allocGate(t *testing.T, name string, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(20, f); avg != 0 {
		t.Errorf("%s: %.1f allocs per warm round, want 0", name, avg)
	}
}

func TestSLPSteadyStateAllocs(t *testing.T) {
	s := NewSLP(DefaultSLPConfig())
	dst := churn(s, 5, make([]addr.BlockNum, 0, 64))
	allocGate(t, "SLP Train+IssueTo", func() { dst = churn(s, 1, dst) })
}

func TestTLPSteadyStateAllocs(t *testing.T) {
	tl := NewTLP(DefaultTLPConfig())
	dst := churn(tl, 5, make([]addr.BlockNum, 0, 64))
	allocGate(t, "TLP Train+IssueTo", func() { dst = churn(tl, 1, dst) })
}

func TestPlanariaSteadyStateAllocs(t *testing.T) {
	for _, mode := range []CoordMode{Decoupled, Serial, Parallel} {
		cfg := DefaultConfig()
		cfg.Mode = mode
		p := New(cfg)
		dst := churn(p, 5, make([]addr.BlockNum, 0, 64))
		allocGate(t, "planaria-"+mode.String()+" Train+IssueTo",
			func() { dst = churn(p, 1, dst) })
		a := acc(0x100, 0, 3, 1<<20, true)
		allocGate(t, "planaria-"+mode.String()+" Peek",
			func() { dst = p.Peek(a, dst[:0]) })
	}
}
