package experiments

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// CacheVariant is one configuration of the cache study.
type CacheVariant struct {
	Label      string
	SizeBytes  int // per-channel slice
	Policy     cache.Policy
	Prefetcher string
}

// DefaultCacheVariants reproduces the Section 1 claim: neither
// state-of-the-art replacement policies nor extra capacity significantly
// improve the SC, while a suitable prefetcher on the baseline cache does.
//
// Capacity stops at 2× the baseline: the synthetic working sets are sized
// for the paper's 4 MB SC, so capacities that swallow the whole live page
// set (trivially solving the problem in a way the paper's much larger real
// working sets do not allow) are out of scope.
func DefaultCacheVariants() []CacheVariant {
	return []CacheVariant{
		{"4MB lru", 1 << 20, cache.LRU, "none"},
		{"4MB srrip", 1 << 20, cache.SRRIP, "none"},
		{"4MB drrip", 1 << 20, cache.DRRIP, "none"},
		{"8MB lru", 2 << 20, cache.LRU, "none"},
		{"8MB drrip", 2 << 20, cache.DRRIP, "none"},
		{"4MB+planaria", 1 << 20, cache.LRU, "planaria"},
	}
}

// CacheStudy runs each variant over the catalog and prints per-variant mean
// hit rate and AMAT. It returns the mean AMAT per variant label.
func CacheStudy(w io.Writer, opts Options, variants []CacheVariant) (map[string]float64, error) {
	if variants == nil {
		variants = DefaultCacheVariants()
	}
	fmt.Fprintf(w, "\n== Cache study: replacement & capacity vs prefetching (Section 1 claim) ==\n")
	fmt.Fprintf(w, "%-14s %10s %10s\n", "variant", "hit rate", "AMAT")
	out := make(map[string]float64, len(variants))
	for _, v := range variants {
		factory, err := sim.NamedPrefetcher(v.Prefetcher)
		if err != nil {
			return nil, err
		}
		var hit, amat float64
		n := 0
		for _, p := range workloads.Catalog() {
			cfg := sim.DefaultConfig()
			cfg.Cache.SizeBytes = v.SizeBytes
			cfg.Cache.Policy = v.Policy
			cfg.NewPrefetcher = factory
			rep, err := runOne(p, cfg, opts)
			if err != nil {
				return nil, err
			}
			hit += rep.HitRate()
			amat += rep.AMAT
			n++
		}
		hit /= float64(n)
		amat /= float64(n)
		out[v.Label] = amat
		fmt.Fprintf(w, "%-14s %9.1f%% %10.1f\n", v.Label, 100*hit, amat)
	}
	if base, ok := out["4MB lru"]; ok {
		if pl, ok := out["4MB+planaria"]; ok {
			fmt.Fprintf(w, "planaria on the 4MB cache: %.1f%% AMAT reduction", 100*metrics.Reduction(base, pl))
			if big, ok := out["8MB drrip"]; ok {
				fmt.Fprintf(w, " — vs %.1f%% from doubling capacity + DRRIP", 100*metrics.Reduction(base, big))
			}
			fmt.Fprintln(w)
		}
	}
	return out, nil
}
