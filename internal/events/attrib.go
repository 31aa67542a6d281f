package events

import "sync/atomic"

// PageBuckets is the number of coarse page-locality buckets the attribution
// table folds the page space into: pages map to buckets in 64-page groups
// cycling modulo PageBuckets, so each bucket samples the whole footprint at
// 64 KB granularity rather than pinning one address range.
const PageBuckets = 8

// bucketOf maps a block's page to its attribution bucket.
func bucketOf(ev Event) int {
	return int((uint64(ev.Block.Page()) >> 6) & (PageBuckets - 1))
}

// attribCell is one (origin × page-bucket) row of lifecycle counters. All
// fields are atomics so the debug endpoint can snapshot mid-run.
type attribCell struct {
	issued  atomic.Uint64
	filled  atomic.Uint64
	used    atomic.Uint64
	late    atomic.Uint64
	evicted atomic.Uint64
}

// attrib is one channel's attribution state. Channel-local so the hot-path
// atomic increments never contend across workers; Recorder sums channels at
// snapshot time.
type attrib struct {
	cells    [NumOrigins][PageBuckets]attribCell
	suppress [numReasons]atomic.Uint64

	demand       atomic.Uint64
	slpPromotes  atomic.Uint64
	slpSnapshots atomic.Uint64
	tlpNeighbors atomic.Uint64
}

// reset zeroes every counter (the engine's warmup-boundary stats reset).
func (a *attrib) reset() {
	for o := range a.cells {
		for b := range a.cells[o] {
			c := &a.cells[o][b]
			c.issued.Store(0)
			c.filled.Store(0)
			c.used.Store(0)
			c.late.Store(0)
			c.evicted.Store(0)
		}
	}
	for r := range a.suppress {
		a.suppress[r].Store(0)
	}
	a.demand.Store(0)
	a.slpPromotes.Store(0)
	a.slpSnapshots.Store(0)
	a.tlpNeighbors.Store(0)
}

// apply folds one event into the attribution counters.
func (a *attrib) apply(ev Event) {
	switch ev.Kind {
	case KindDemand:
		a.demand.Add(1)
	case KindArbitration:
		a.suppress[ev.Reason].Add(1)
	case KindSLPPromote:
		a.slpPromotes.Add(1)
	case KindSLPSnapshot:
		a.slpSnapshots.Add(1)
	case KindTLPNeighbor:
		a.tlpNeighbors.Add(1)
	case KindIssue:
		a.cells[ev.Origin][bucketOf(ev)].issued.Add(1)
	case KindFill:
		c := &a.cells[ev.Origin][bucketOf(ev)]
		c.filled.Add(1)
		if ev.Flags&FlagLate != 0 {
			// The demand already waited on this fill: the usefulness
			// credit is a late hit, attributed here (fill time) so the
			// totals reconcile exactly with Report.UsefulByOrigin,
			// which credits late uses when the fill lands.
			c.late.Add(1)
		}
	case KindUsed:
		a.cells[ev.Origin][bucketOf(ev)].used.Add(1)
	case KindEvictUnused:
		a.cells[ev.Origin][bucketOf(ev)].evicted.Add(1)
	}
}

// BucketAttrib is one page bucket's lifecycle counters in a snapshot.
type BucketAttrib struct {
	Bucket        int    `json:"bucket"`
	Issued        uint64 `json:"issued"`
	Filled        uint64 `json:"filled"`
	Used          uint64 `json:"used"`
	Late          uint64 `json:"late"`
	EvictedUnused uint64 `json:"evicted_unused"`
}

// OriginAttrib is one sub-prefetcher's attribution row: lifecycle totals
// plus the non-empty per-page-bucket breakdown.
type OriginAttrib struct {
	Origin        string         `json:"origin"`
	Issued        uint64         `json:"issued"`
	Filled        uint64         `json:"filled"`
	Used          uint64         `json:"used"`
	Late          uint64         `json:"late"`
	EvictedUnused uint64         `json:"evicted_unused"`
	Buckets       []BucketAttrib `json:"buckets,omitempty"`
}

// AttribSnapshot is a point-in-time view of the attribution table, summed
// over channels. It is safe to take while the run is in progress; counters
// in one snapshot are individually consistent but not mutually atomic.
type AttribSnapshot struct {
	PageBuckets int `json:"page_buckets"`

	// Origins lists the lifecycle attribution per sub-prefetcher, in
	// enum order (untagged, slp, tlp, stride, markov, accel, nextline,
	// other); all-zero rows are omitted.
	Origins []OriginAttrib `json:"origins"`

	// Suppression histograms the coordinator's arbitration outcomes by
	// the reason the losing sub-prefetcher was suppressed.
	Suppression map[string]uint64 `json:"suppression,omitempty"`

	Demand             uint64 `json:"demand_events"`
	SLPPromotions      uint64 `json:"slp_promotions"`
	SLPSnapshots       uint64 `json:"slp_snapshots"`
	TLPNeighborMatches uint64 `json:"tlp_neighbor_matches"`

	// DroppedEvents counts ring-buffer overwrites across all channels
	// (zero when rings are disabled or sized generously enough).
	DroppedEvents uint64 `json:"dropped_events"`
}

// UsefulByOrigin returns used+late per origin name — the event-level
// counterpart of metrics.Report.UsefulByOrigin (which also counts late hits
// per origin); the two reconcile exactly at end of run.
func (s *AttribSnapshot) UsefulByOrigin() map[string]uint64 {
	out := make(map[string]uint64, len(s.Origins))
	for _, o := range s.Origins {
		out[o.Origin] = o.Used + o.Late
	}
	return out
}
