package cache

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
)

func benchCache(b *testing.B, policy Policy) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, Policy: policy})
	rng := rand.New(rand.NewSource(1))
	blocks := make([]addr.BlockNum, 1<<16)
	for i := range blocks {
		blocks[i] = addr.BlockNum(rng.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := blocks[i&(len(blocks)-1)]
		if !c.Access(blk, i%5 == 0) {
			c.Fill(blk, i%7 == 0, false)
		}
	}
}

func BenchmarkCacheLRU(b *testing.B)   { benchCache(b, LRU) }
func BenchmarkCacheSRRIP(b *testing.B) { benchCache(b, SRRIP) }
func BenchmarkCacheDRRIP(b *testing.B) { benchCache(b, DRRIP) }

// fullCache builds a cache with every way of every set valid, so the tag
// scan in the benchmarks below always walks a full valid mask — the
// worst-case (and steady-state) shape of the packed-lane scan. Returns the
// resident blocks; their count is a power of two for cheap masking.
func fullCache() (*Cache, []addr.BlockNum) {
	c := New(Config{SizeBytes: 1 << 20, Ways: 16, Policy: LRU})
	blocks := make([]addr.BlockNum, 0, c.nsets*c.ways)
	for tag := 1; tag <= c.ways; tag++ {
		for set := 0; set < c.nsets; set++ {
			blk := addr.BlockNum(uint64(set) | uint64(tag)<<c.tagShift)
			c.Fill(blk, false, false)
			blocks = append(blocks, blk)
		}
	}
	return c, blocks
}

// BenchmarkCacheAccessHit measures the hit path: packed tag-lane scan plus
// the hot replacement-state touch (moving the way to the MRU end of its
// set's LRU list), no eviction. Must stay allocation-free (pinned in
// BENCH_baseline.json).
func BenchmarkCacheAccessHit(b *testing.B) {
	c, blocks := fullCache()
	mask := len(blocks) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(blocks[i&mask], false) {
			b.Fatal("expected hit")
		}
	}
}

// BenchmarkCacheAccessMiss measures the miss path: a full-mask scan that
// matches nothing (tag 0 is never resident — fullCache fills tags 1..ways)
// plus miss accounting. Misses do not mutate residency, so every iteration
// stays a miss.
func BenchmarkCacheAccessMiss(b *testing.B) {
	c, _ := fullCache()
	mask := c.nsets - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Access(addr.BlockNum(i&mask), false) {
			b.Fatal("expected miss")
		}
	}
}

// BenchmarkCacheContains measures the stat-free probe: scan only, no
// replacement-state update (the prefetcher's dedup filter path).
func BenchmarkCacheContains(b *testing.B) {
	c, blocks := fullCache()
	mask := len(blocks) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Contains(blocks[i&mask]) {
			b.Fatal("expected resident")
		}
	}
}

// BenchmarkCacheFillEvict measures the eviction path: a miss, then a fill
// into a full 16-way LRU set, so every op picks the LRU victim and evicts
// it. Blocks above every resident tag are each used once, so every op
// misses. Must stay allocation-free (pinned in BENCH_baseline.json).
func BenchmarkCacheFillEvict(b *testing.B) {
	c, _ := fullCache()
	first := uint64(c.ways+1) << c.tagShift
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := addr.BlockNum(first + uint64(i))
		if c.Access(blk, false) {
			b.Fatal("expected miss")
		}
		if !c.Fill(blk, false, false).Valid {
			b.Fatal("expected eviction")
		}
	}
}
