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

// planariaMode builds Planaria in mode m with the given sub-prefetchers
// disabled, its SLP timeout short enough to capture snapshots within a
// contract stream.
func planariaMode(m core.CoordMode, disableSLP, disableTLP bool) *core.Planaria {
	cfg := core.DefaultConfig()
	cfg.Mode, cfg.DisableSLP, cfg.DisableTLP = m, disableSLP, disableTLP
	cfg.SLP.Timeout = 300
	return core.New(cfg)
}

// TestPeekMatchesIssue pins the Component contract the tournament's shadow
// pass relies on: after each Train, Peek(a) equals exactly what IssueTo(a)
// then returns, for every built-in component, Planaria in all three
// coordination modes and with either sub-prefetcher disabled (the Figure 9
// variants), and a tournament nested inside a tournament. A Planaria that
// issues serially also counts each answered trigger exactly once, on the
// sub-prefetcher that answered it.
func TestPeekMatchesIssue(t *testing.T) {
	cases := []struct {
		name string
		mk   func() prefetch.Component
	}{
		{"stride", func() prefetch.Component { return prefetch.NewStride(64, 2) }},
		{"nextline", func() prefetch.Component { return prefetch.NewNextLine(2) }},
		{"markov", func() prefetch.Component { return prefetch.NewMarkov(prefetch.DefaultMarkovConfig()) }},
		{"accel", func() prefetch.Component { return prefetch.NewAccel(prefetch.DefaultAccelConfig()) }},
		{"planaria-decoupled", func() prefetch.Component { return planariaMode(core.Decoupled, false, false) }},
		{"planaria-serial", func() prefetch.Component { return planariaMode(core.Serial, false, false) }},
		{"planaria-parallel", func() prefetch.Component { return planariaMode(core.Parallel, false, false) }},
		{"nested-tournament", func() prefetch.Component {
			inner := prefetch.NewTournament(prefetch.TournamentConfig{Name: "inner"},
				prefetch.NewMarkov(prefetch.DefaultMarkovConfig()), prefetch.NewAccel(prefetch.DefaultAccelConfig()))
			return prefetch.NewTournament(prefetch.TournamentConfig{FilterEntries: 16},
				planariaMode(core.Decoupled, false, false), prefetch.NewStride(64, 2), inner)
		}},
		{"planaria-slp", func() prefetch.Component { return planariaMode(core.Decoupled, false, true) }},
		{"planaria-tlp", func() prefetch.Component { return planariaMode(core.Decoupled, true, false) }},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.mk()
			var peek, issue []addr.BlockNum
			nonEmpty := 0
			for k, a := range contractStream(int64(i+1), 20_000) {
				c.Train(a)
				peek = c.Peek(a, peek[:0])
				issue = c.IssueTo(a, issue[:0])
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
			if p, ok := c.(*core.Planaria); ok && p.Name() != "planaria-parallel" {
				if slp, tlp := p.IssueShare(); slp+tlp != uint64(nonEmpty) {
					t.Fatalf("IssueShare slp %d + tlp %d, want the %d triggers that issued", slp, tlp, nonEmpty)
				}
			}
		})
	}
}

// fuzzStream decodes fuzz input into an access stream, two bytes an access.
// The first byte holds the segment offset (bits 0–3), the channel (4–5),
// the miss flag (6) and the write flag (7). The second holds the page, one
// of 32 (bits 0–4), and the gap since the previous access, 10 << (bits 5–7)
// cycles, so both short bursts and SLP timeouts occur.
func fuzzStream(data []byte) []prefetch.Access {
	out := make([]prefetch.Access, 0, len(data)/2)
	cycle := uint64(0)
	for i := 0; i+1 < len(data); i += 2 {
		b0, b1 := data[i], data[i+1]
		cycle += 10 << (b1 >> 5)
		page := addr.PageNum(0x4000 + int(b1&31))
		out = append(out, prefetch.Access{
			Block: page.Block(addr.OffsetOf(int(b0>>4&3), int(b0&15))),
			Cycle: cycle,
			Miss:  b0&(1<<6) != 0,
			Write: b0&(1<<7) != 0,
		})
	}
	return out
}

// encodeStream is fuzzStream's encoding of a contract stream: pages fold
// onto the 32 the encoding holds, and every gap becomes the shortest.
func encodeStream(s []prefetch.Access) []byte {
	out := make([]byte, 0, 2*len(s))
	for _, a := range s {
		b0 := byte(a.Block.SegOffset()) | byte(a.Block.Channel())<<4
		if a.Miss {
			b0 |= 1 << 6
		}
		if a.Write {
			b0 |= 1 << 7
		}
		out = append(out, b0, byte(a.Page()-0x4000)&31)
	}
	return out
}

// FuzzPeekMatchesIssue checks Peek against IssueTo after every Train, on
// fuzzed access streams, for Planaria in each coordination mode and with
// either sub-prefetcher disabled: both expand the coordinator's one plan,
// whatever branch of it a stream reaches. Small tables make evictions
// common within a short stream.
func FuzzPeekMatchesIssue(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(encodeStream(contractStream(seed, 300)))
	}
	variants := []struct {
		mode                   core.CoordMode
		disableSLP, disableTLP bool
	}{
		{core.Decoupled, false, false},
		{core.Serial, false, false},
		{core.Parallel, false, false},
		{core.Decoupled, false, true},
		{core.Decoupled, true, false},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		stream := fuzzStream(data)
		for _, v := range variants {
			cfg := core.DefaultConfig()
			cfg.Mode, cfg.DisableSLP, cfg.DisableTLP = v.mode, v.disableSLP, v.disableTLP
			cfg.SLP = core.SLPConfig{FTEntries: 8, ATEntries: 8, PTEntries: 64, FTPromote: 3, Timeout: 300}
			cfg.TLP.RPTEntries = 16
			p := core.New(cfg)
			var peek, issue []addr.BlockNum
			for k, a := range stream {
				p.Train(a)
				peek = p.Peek(a, peek[:0])
				issue = p.IssueTo(a, issue[:0])
				if !slices.Equal(peek, issue) {
					t.Fatalf("%s, access %d (%+v): Peek %v, IssueTo %v", p.Name(), k, a, peek, issue)
				}
			}
		}
	})
}
