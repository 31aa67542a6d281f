package prefetch

import (
	"testing"

	"repro/internal/addr"
)

// Steady-state allocation gates for the baseline components and the
// tournament: once warm, Train and IssueTo (with a reused buffer) allocate
// nothing. Strict zero — the tournament's shadow filters and every
// component table are fixed-footprint, so any allocation here is a
// regression.

// churnComp drives c through a deterministic access mix (strided pages
// with repeats, so stride/markov/accel all lock on) reusing dst.
func churnComp(c Component, rounds int, dst []addr.BlockNum) []addr.BlockNum {
	cycle := uint64(0)
	for r := 0; r < rounds; r++ {
		for i := 0; i < 200; i++ {
			p := addr.PageNum(0x40 + (i%23)*2)
			a := Access{
				Block: p.Block(addr.OffsetOf(i%addr.Channels, (i*3)%addr.SegmentBlocks)),
				Cycle: cycle,
				Miss:  true,
			}
			c.Train(a)
			dst = c.IssueTo(a, dst[:0])
			cycle += 11
		}
	}
	return dst
}

func TestComponentSteadyStateAllocs(t *testing.T) {
	comps := map[string]Component{
		"nextline":   NewNextLine(2),
		"stride":     NewStride(256, 2),
		"markov":     NewMarkov(DefaultMarkovConfig()),
		"accel":      NewAccel(DefaultAccelConfig()),
		"tournament": NewTournament(TournamentConfig{}, NewStride(256, 2), NewMarkov(DefaultMarkovConfig()), NewAccel(DefaultAccelConfig())),
	}
	for name, c := range comps {
		dst := churnComp(c, 5, make([]addr.BlockNum, 0, 64))
		if avg := testing.AllocsPerRun(20, func() { dst = churnComp(c, 1, dst) }); avg != 0 {
			t.Errorf("%s: %.1f allocs per warm round, want 0", name, avg)
		}
	}
}
