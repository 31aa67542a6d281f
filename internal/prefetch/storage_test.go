package prefetch

import (
	"testing"

	"repro/internal/addr"
)

// TestStorageBitsHonesty pins every component's storage accounting against
// an independently computed budget from its table geometry, so a table that
// grows without its StorageBits following (or vice versa) fails loudly. The
// formulas mirror docs/PREFETCHERS.md.
func TestStorageBitsHonesty(t *testing.T) {
	markovDefault := DefaultMarkovConfig()
	markovSmall := DefaultMarkovConfig()
	markovSmall.Trackers, markovSmall.Patterns = 32, 256
	accelDefault := DefaultAccelConfig()
	cases := []struct {
		name  string
		build func() Prefetcher
		want  int
	}{
		{
			name:  "nextline",
			build: func() Prefetcher { return NewNextLine(2) },
			want:  0, // stateless
		},
		{
			name:  "stride/64",
			build: func() Prefetcher { return NewStride(64, 2) },
			// 64 entries × (36 page tag + 4 offset + 5 stride + 2 conf + 1 valid)
			want: 64 * (36 + 4 + 5 + 2 + 1),
		},
		{
			name:  "markov/default",
			build: func() Prefetcher { return NewMarkov(markovDefault) },
			// trackers × (36 tag + 4 offset + 10 sig + 2 primed + 1 valid)
			// + patterns × ((10−10) sig tag + 5 delta + 2 conf + 1 valid)
			want: 128*(36+4+10+2+1) + 1024*(0+5+2+1),
		},
		{
			name:  "markov/small",
			build: func() Prefetcher { return NewMarkov(markovSmall) },
			want:  32*(36+4+10+2+1) + 256*((10-8)+5+2+1),
		},
		{
			name:  "accel/default",
			build: func() Prefetcher { return NewAccel(accelDefault) },
			// entries × (36 tag + 4 offset + 5 delta + 6 accel + 2 conf + 1 primed + 1 valid)
			want: 128 * (36 + 4 + 5 + 6 + 2 + 1 + 1),
		},
		{
			name: "tournament/solo-stride",
			build: func() Prefetcher {
				return NewTournament(TournamentConfig{FilterEntries: 512}, NewStride(64, 2))
			},
			// component + meta (regions × n × 3-bit trust + n × 10-bit psel)
			// + n × filter entries × ((42−9) block tag + valid + consumed)
			want: 64*(36+4+5+2+1) + (256*1*3 + 1*10) + 1*512*((42-9)+2),
		},
		{
			name: "tournament/three-way",
			build: func() Prefetcher {
				return NewTournament(TournamentConfig{FilterEntries: 256},
					NewStride(64, 2), NewMarkov(markovDefault), NewAccel(accelDefault))
			},
			want: 64*(36+4+5+2+1) +
				128*(36+4+10+2+1) + 1024*(0+5+2+1) +
				128*(36+4+5+6+2+1+1) +
				(256*3*3 + 3*10) +
				3*256*((42-8)+2),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			if got := p.StorageBits(); got != tc.want {
				t.Errorf("StorageBits = %d, want %d", got, tc.want)
			}
			// The budget is hardware: it must not drift as the tables fill.
			before := p.StorageBits()
			for i := 0; i < 500; i++ {
				page := addr.PageNum(i % 37)
				a := Access{Block: page.Block(addr.OffsetOf(0, i%16)), Cycle: uint64(i), Miss: i%3 == 0}
				p.Train(a)
				p.Issue(a)
			}
			if after := p.StorageBits(); after != before {
				t.Errorf("StorageBits drifted under load: %d -> %d", before, after)
			}
			p.Reset()
			if after := p.StorageBits(); after != before {
				t.Errorf("StorageBits changed across Reset: %d -> %d", before, after)
			}
		})
	}
}

// TestMetaStorageBits pins the selector's own budget formula.
func TestMetaStorageBits(t *testing.T) {
	m := NewMeta(4)
	// 256 regions × 4 components × 3-bit trust + 4 × (8+1+1)-bit psel.
	if want := 256*4*3 + 4*10; m.StorageBits() != want {
		t.Errorf("Meta.StorageBits = %d, want %d", m.StorageBits(), want)
	}
}
