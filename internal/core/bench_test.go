package core

import (
	"math/rand"
	"testing"

	"repro/internal/addr"
	"repro/internal/prefetch"
)

func benchAccesses(n int) []prefetch.Access {
	rng := rand.New(rand.NewSource(1))
	out := make([]prefetch.Access, n)
	cycle := uint64(0)
	for i := range out {
		p := addr.PageNum(rng.Intn(4096))
		out[i] = prefetch.Access{
			Block: p.Block(addr.OffsetOf(0, rng.Intn(16))),
			Cycle: cycle,
			Miss:  rng.Intn(3) != 0,
		}
		cycle += uint64(rng.Intn(60))
	}
	return out
}

// trainIssuer is the engine's view of a prefetcher: Train, then IssueTo.
type trainIssuer interface {
	Train(prefetch.Access)
	IssueTo(prefetch.Access, []addr.BlockNum) []addr.BlockNum
}

// benchTrainIssue drives pf the way the engine does — Train, then IssueTo
// into one reused buffer — so BENCH_baseline.json can pin the TrainIssue
// benchmarks allocation-free.
func benchTrainIssue(b *testing.B, pf trainIssuer) {
	accs := benchAccesses(1 << 16)
	dst := make([]addr.BlockNum, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := accs[i&(len(accs)-1)]
		pf.Train(a)
		dst = pf.IssueTo(a, dst[:0])
	}
}

// BenchmarkSLPTrainIssue measures the per-access cost of the intra-page
// sub-prefetcher.
func BenchmarkSLPTrainIssue(b *testing.B) { benchTrainIssue(b, NewSLP(DefaultSLPConfig())) }

// BenchmarkTLPTrainIssue measures the per-access cost of the inter-page
// sub-prefetcher (dominated by the 128-entry RPT scans).
func BenchmarkTLPTrainIssue(b *testing.B) { benchTrainIssue(b, NewTLP(DefaultTLPConfig())) }

// BenchmarkPlanariaTrainIssue measures the full composite prefetcher.
func BenchmarkPlanariaTrainIssue(b *testing.B) { benchTrainIssue(b, New(DefaultConfig())) }
