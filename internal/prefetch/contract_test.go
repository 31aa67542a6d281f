package prefetch_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// contractStream is a seeded access stream built from per-page episodes —
// constant strides, alternating +1/+3 walks, triangular sweeps and random
// footprints — over a 48-page window that pages revisit, so every built-in
// component (and both Planaria sub-prefetchers) has something to predict.
func contractStream(seed int64, n int) []prefetch.Access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]prefetch.Access, 0, n)
	cycle := uint64(0)
	for len(out) < n {
		page := addr.PageNum(0x4000 + rng.Intn(48))
		ch := rng.Intn(addr.Channels)
		var offs []int
		switch rng.Intn(4) {
		case 0: // constant stride
			s := 1 + rng.Intn(3)
			for o := rng.Intn(3); o < addr.SegmentBlocks; o += s {
				offs = append(offs, o)
			}
		case 1: // alternating deltas
			for o, d := 0, 1; o < addr.SegmentBlocks; o, d = o+d, 4-d {
				offs = append(offs, o)
			}
		case 2: // accelerating sweep
			for o, d := 0, 1; o < addr.SegmentBlocks; o, d = o+d, d+1 {
				offs = append(offs, o)
			}
		default: // random footprint
			for k := 3 + rng.Intn(6); k > 0; k-- {
				offs = append(offs, rng.Intn(addr.SegmentBlocks))
			}
		}
		for _, o := range offs {
			out = append(out, prefetch.Access{
				Block: page.Block(addr.OffsetOf(ch, o)),
				Cycle: cycle,
				Miss:  rng.Intn(4) != 0,
			})
			cycle += 10
		}
	}
	return out[:n]
}

func planariaMode(m core.CoordMode) prefetch.Component {
	cfg := core.DefaultConfig()
	cfg.Mode = m
	cfg.SLP.Timeout = 300 // capture snapshots within the stream
	return core.New(cfg)
}

// TestPeekMatchesIssue pins the Component contract the tournament's shadow
// pass relies on: after each Train, Peek(a) equals exactly what IssueTo(a)
// then returns, for every built-in component, Planaria in all three
// coordination modes and a tournament nested inside a tournament.
func TestPeekMatchesIssue(t *testing.T) {
	cases := []struct {
		name string
		mk   func() prefetch.Component
	}{
		{"stride", func() prefetch.Component { return prefetch.NewStride(64, 2) }},
		{"nextline", func() prefetch.Component { return prefetch.NewNextLine(2) }},
		{"markov", func() prefetch.Component { return prefetch.NewMarkov(prefetch.DefaultMarkovConfig()) }},
		{"accel", func() prefetch.Component { return prefetch.NewAccel(prefetch.DefaultAccelConfig()) }},
		{"planaria-decoupled", func() prefetch.Component { return planariaMode(core.Decoupled) }},
		{"planaria-serial", func() prefetch.Component { return planariaMode(core.Serial) }},
		{"planaria-parallel", func() prefetch.Component { return planariaMode(core.Parallel) }},
		{"nested-tournament", func() prefetch.Component {
			inner := prefetch.NewTournament(prefetch.TournamentConfig{Name: "inner"},
				prefetch.NewMarkov(prefetch.DefaultMarkovConfig()), prefetch.NewAccel(prefetch.DefaultAccelConfig()))
			return prefetch.NewTournament(prefetch.TournamentConfig{FilterEntries: 16},
				planariaMode(core.Decoupled), prefetch.NewStride(64, 2), inner)
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			bi := c.(prefetch.BufferedIssuer)
			var peek, issue []addr.BlockNum
			nonEmpty := 0
			for k, a := range contractStream(int64(i+1), 20_000) {
				c.Train(a)
				peek = c.Peek(a, peek[:0])
				issue = bi.IssueTo(a, issue[:0])
				if !slices.Equal(peek, issue) {
					t.Fatalf("access %d (%+v): Peek %v, IssueTo %v", k, a, peek, issue)
				}
				if len(issue) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty < 500 {
				t.Fatalf("only %d triggers issued anything; the stream does not exercise %s", nonEmpty, tc.name)
			}
		})
	}
}
