package prefetch

import "repro/internal/addr"

// The meta-predictor's geometry, the same for every tournament.
const (
	// metaRegions is the selector-table size: the number of page-region
	// rows of trust counters (a power of two). Page regions map to rows
	// modulo metaRegions.
	metaRegions = 256
	// metaRegionShift is log2 of the pages per region: 64-page / 256 KB
	// regions, matching the attribution table's bucket granularity.
	metaRegionShift = 6
	// metaLeaderMod is the set-dueling ratio, the DRRIP ratio used by
	// internal/cache: of every metaLeaderMod consecutive region rows, the
	// first one per component is that component's leader. Leader rows
	// always select their component, so every component keeps producing
	// shadow-scoreable predictions even when out of favour.
	metaLeaderMod = 32
	// metaTrustMax is the saturating ceiling of the per-region trust
	// counters (3-bit counters).
	metaTrustMax = 7
	// metaPselMax clamps the global per-component score to ±metaPselMax
	// (10-bit signed counters, the DRRIP PSEL width).
	metaPselMax = 511
)

// Meta is the tournament's selector: it learns, per page region, which
// component to trust with the issuing slot. The mechanism mirrors DRRIP set
// dueling (the internal/cache template): a fixed 1-in-32 slice of
// region rows is permanently dedicated to each component (leader regions,
// the exploration path), while follower regions pick the component with the
// highest learned trust — per-region 3-bit counters first, the global
// PSEL-style score as the cold-row tiebreak, and the fixed priority order
// (component 0, the composite) when everything ties.
//
// Meta is driven single-threaded per channel, like every prefetcher.
type Meta struct {
	n         int
	leaderMod int       // metaLeaderMod, widened to n
	trust     [][]uint8 // [region row][component], saturating 0..metaTrustMax
	psel      []int     // [component], clamped to ±metaPselMax
}

// NewMeta builds a selector over n components. n must be ≥ 1.
func NewMeta(n int) *Meta {
	// Every component needs its own leader slot in the cycle.
	m := &Meta{n: n, leaderMod: max(metaLeaderMod, n), psel: make([]int, n)}
	m.trust = make([][]uint8, metaRegions)
	rows := make([]uint8, metaRegions*n)
	for i := range m.trust {
		m.trust[i], rows = rows[:n], rows[n:]
	}
	return m
}

// Components returns the number of components the selector arbitrates.
func (m *Meta) Components() int { return m.n }

// Region maps a page to its selector row.
func (m *Meta) Region(p addr.PageNum) int {
	return int((uint64(p) >> metaRegionShift) & (metaRegions - 1))
}

// Select returns the component that should issue for the region, and
// whether the row is a leader region (forced exploration) rather than a
// learned choice.
func (m *Meta) Select(region int) (comp int, leader bool) {
	if k := region % m.leaderMod; k < m.n {
		return k, true
	}
	row := m.trust[region]
	best, bestTrust := 0, row[0]
	for c := 1; c < m.n; c++ {
		if row[c] > bestTrust {
			best, bestTrust = c, row[c]
		}
	}
	if bestTrust == 0 {
		// Cold row: fall back to the global score; ties (including the
		// all-zero start) resolve to component 0 — the fixed priority
		// order, i.e. the paper's SLP-priority rule.
		best = 0
		for c := 1; c < m.n; c++ {
			if m.psel[c] > m.psel[best] {
				best = c
			}
		}
	}
	return best, false
}

// Reward credits component comp in region: its shadow-predicted block was
// demanded while missing, so issuing it there would have covered the miss.
func (m *Meta) Reward(region, comp int) {
	if row := m.trust[region]; row[comp] < metaTrustMax {
		row[comp]++
	}
	if m.psel[comp] < metaPselMax {
		m.psel[comp]++
	}
}

// Penalize debits component comp in region: one of its predictions aged out
// of the shadow filter without ever being demanded (a would-be wasted
// prefetch).
func (m *Meta) Penalize(region, comp int) {
	if row := m.trust[region]; row[comp] > 0 {
		row[comp]--
	}
	if m.psel[comp] > -metaPselMax {
		m.psel[comp]--
	}
}

// Trust returns the region's trust counter for a component (tests and the
// debug endpoint).
func (m *Meta) Trust(region, comp int) uint8 { return m.trust[region][comp] }

// Score returns a component's global (PSEL-style) score.
func (m *Meta) Score(comp int) int { return m.psel[comp] }

// Reset clears all learned selector state.
func (m *Meta) Reset() {
	for _, row := range m.trust {
		for c := range row {
			row[c] = 0
		}
	}
	for c := range m.psel {
		m.psel[c] = 0
	}
}

// StorageBits returns the selector's hardware budget: one 3-bit (log2 of
// metaTrustMax+1) counter per region row per component, plus one
// PSEL-style counter (log2 of metaPselMax, plus a sign bit) per component.
func (m *Meta) StorageBits() int {
	trustBits := log2i(metaTrustMax + 1)
	pselBits := log2i(metaPselMax) + 1 + 1
	return len(m.trust)*m.n*trustBits + m.n*pselBits
}
