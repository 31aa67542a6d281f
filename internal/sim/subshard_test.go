package sim

import (
	"context"
	"testing"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runSharded drives tr through an engine with the given sub-shard count,
// serial or parallel, with sampling and warmup enabled so the parallel
// path's barrier merges are exercised too.
func runSharded(t *testing.T, pf string, tr trace.Trace, name string, m int, par bool) metrics.Report {
	t.Helper()
	factory, err := NamedPrefetcher(pf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.NewPrefetcher = factory
	cfg.SubShards = m
	cfg.ParallelChannels = par
	cfg.SampleEvery = 5_000
	eng := New(cfg)
	rep, err := eng.Run(context.Background(), tr.Stream(), name, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSubShardEquivalenceMatrix pins the sub-sharding determinism contract:
// at every shard count, serial and parallel runs produce bit-identical
// reports — every counter, the float AMAT, per-origin attribution and the
// full sampler window sequence — for the composite and the tournament on
// every catalog app. Run under -race this also exercises the wider
// (channels × sub-shards) worker fleet's synchronisation.
func TestSubShardEquivalenceMatrix(t *testing.T) {
	const n = 20_000
	apps := workloads.Catalog()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, p := range apps {
		tr := p.Generate(n)
		for _, pf := range []string{"planaria", "planaria-tournament"} {
			for _, m := range []int{1, 2, 8} {
				serial := runSharded(t, pf, tr, p.Abbr, m, false)
				parallel := runSharded(t, pf, tr, p.Abbr, m, true)
				sj, pj := reportJSON(t, serial), reportJSON(t, parallel)
				if sj != pj {
					t.Errorf("%s/%s m=%d: serial and parallel reports differ\nserial:   %s\nparallel: %s",
						p.Abbr, pf, m, sj, pj)
				}
				if serial.Channels != addr.Channels || serial.SubShards != m {
					t.Errorf("%s/%s m=%d: report geometry %d×%d", p.Abbr, pf, m, serial.Channels, serial.SubShards)
				}
			}
		}
	}
}

// TestSubShardOneMatchesLegacy pins that SubShards == 1 is not merely
// self-consistent but identical to the unsharded configuration (the zero
// value), i.e. sub-sharding changed nothing about the default geometry.
func TestSubShardOneMatchesLegacy(t *testing.T) {
	p := workloads.Catalog()[0]
	tr := p.Generate(20_000)
	base := runSharded(t, "planaria", tr, p.Abbr, 0, true)
	one := runSharded(t, "planaria", tr, p.Abbr, 1, true)
	if bj, oj := reportJSON(t, base), reportJSON(t, one); bj != oj {
		t.Fatalf("SubShards 1 differs from the zero value\nzero: %s\none:  %s", bj, oj)
	}
}

// TestSubShardNormalisation pins how requested shard counts resolve: ≤ 0
// and 1 mean one unit per channel, non-powers-of-two round down, and
// counts too deep for the cache geometry halve until the per-unit slice
// validates.
func TestSubShardNormalisation(t *testing.T) {
	cases := []struct{ req, want int }{
		{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 2}, {7, 4}, {8, 8},
		// The default 1 MB 16-way cache divides down to a single 16-way
		// set (1 KB) at 1024 shards; deeper requests halve back to it.
		{1024, 1024}, {4096, 1024},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.SubShards = c.req
		if got := New(cfg).SubShards(); got != c.want {
			t.Errorf("SubShards %d resolved to %d, want %d", c.req, got, c.want)
		}
	}
}

// TestSubShardRouting pins the unit-routing invariants the design rests
// on: a unit index always belongs to the block's channel, the whole
// 64-page group routes to one unit (TLP's distance-64 neighbourhoods and
// every built-in's candidates stay unit-local), and shards == 1 degrades
// to plain channel routing.
func TestSubShardRouting(t *testing.T) {
	for _, m := range []int{1, 2, 4, 8} {
		for g := uint64(0); g < 64; g++ { // 64 page groups
			base := addr.PageNum(g << 6)
			want := -1
			for pg := uint64(0); pg < 64; pg += 7 { // pages within the group
				p := base + addr.PageNum(pg)
				for off := 0; off < addr.BlocksPerPage; off += 5 {
					b := p.Block(off)
					u := unitIndex(b, m)
					if u/m != b.Channel() {
						t.Fatalf("m=%d block %v: unit %d not in channel %d", m, b, u, b.Channel())
					}
					// Same channel + same page group ⇒ same unit.
					key := u % m
					if want == -1 {
						want = key
					} else if key != want {
						t.Fatalf("m=%d: page group %d split across sub-shards %d and %d", m, g, want, key)
					}
					if m == 1 && u != b.Channel() {
						t.Fatalf("m=1 block %v: unit %d ≠ channel %d", b, u, b.Channel())
					}
				}
			}
		}
	}
}
