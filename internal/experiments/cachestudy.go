package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/sweepfarm"
)

// cacheGrid reproduces the Section 1 claim: neither state-of-the-art
// replacement policies nor extra capacity significantly improve the SC,
// while a suitable prefetcher on the baseline cache does. Each variant is
// one SC configuration under one prefetcher, so the grid holds its 60
// cells and not the {none, planaria} × 5 caches cross product.
//
// Capacity stops at 2× the baseline: the synthetic working sets are sized
// for the paper's 4 MB SC, so capacities that swallow the whole live page
// set (trivially solving the problem in a way the paper's much larger real
// working sets do not allow) are out of scope.
func cacheGrid(Options) sweepfarm.Grid {
	none, planaria := []string{"none"}, []string{"planaria"}
	return sweepfarm.Grid{
		Prefetchers: []string{"none", "planaria"},
		Variants: []sweepfarm.Variant{
			{Name: "4MB lru", SliceBytes: 1 << 20, Policy: "lru", Prefetchers: none},
			{Name: "4MB srrip", SliceBytes: 1 << 20, Policy: "srrip", Prefetchers: none},
			{Name: "4MB drrip", SliceBytes: 1 << 20, Policy: "drrip", Prefetchers: none},
			{Name: "8MB lru", SliceBytes: 2 << 20, Policy: "lru", Prefetchers: none},
			{Name: "8MB drrip", SliceBytes: 2 << 20, Policy: "drrip", Prefetchers: none},
			{Name: "4MB+planaria", SliceBytes: 1 << 20, Policy: "lru", Prefetchers: planaria},
		},
	}
}

// cacheStudy prints each variant's mean hit rate and AMAT over the catalog
// and returns the mean AMAT per variant ("cache_study_amat:<variant>").
func cacheStudy(w io.Writer, res *sweepfarm.Result, _ Options) (map[string]float64, error) {
	fmt.Fprintf(w, "\n== Cache study: replacement & capacity vs prefetching (Section 1 claim) ==\n")
	fmt.Fprintf(w, "%-14s %10s %10s\n", "variant", "hit rate", "AMAT")
	summary := make(map[string]float64, len(res.Grid.Variants))
	for _, v := range res.Grid.Variants {
		var hit, amat float64
		n := 0
		for _, c := range res.Cells {
			if c.Key.Variant == v.Name {
				hit += c.Repeats[0].Report.HitRate()
				amat += c.Repeats[0].Report.AMAT
				n++
			}
		}
		hit /= float64(n)
		amat /= float64(n)
		summary["cache_study_amat:"+v.Name] = amat
		fmt.Fprintf(w, "%-14s %9.1f%% %10.1f\n", v.Name, 100*hit, amat)
	}
	base := summary["cache_study_amat:4MB lru"]
	fmt.Fprintf(w, "planaria on the 4MB cache: %.1f%% AMAT reduction — vs %.1f%% from doubling capacity + DRRIP\n",
		100*metrics.Reduction(base, summary["cache_study_amat:4MB+planaria"]),
		100*metrics.Reduction(base, summary["cache_study_amat:8MB drrip"]))
	return summary, nil
}
