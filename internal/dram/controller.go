package dram

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/telemetry"
)

// Request is one block transfer handled by a channel controller. The engine
// fills the input fields and reads the output fields after the request has
// been serviced.
type Request struct {
	Block      addr.BlockNum // block to transfer (must belong to this channel)
	Write      bool          // write (fill writeback) vs read
	Prefetch   bool          // prefetch-originated (lower scheduling priority)
	WriteAlloc bool          // write-allocate fetch: demand priority, but not a demand read for latency stats
	Arrival    uint64        // cycle the request reaches the controller

	// Outputs, valid once serviced.
	IssueAt  uint64 // first command issue time
	Done     uint64 // data burst completion time
	RowHit   bool   // serviced from an open row
	Serviced bool

	// Cached DRAM coordinate, resolved once at Enqueue so neither the
	// FR-FCFS window scan nor execute re-derives Geometry.Map per visit
	// (a queued request used to be re-mapped on every serviceOne pass).
	bank int
	row  uint64
}

// Latency returns the request's total service latency including queueing.
func (r *Request) Latency() uint64 {
	if !r.Serviced || r.Done < r.Arrival {
		return 0
	}
	return r.Done - r.Arrival
}

// Stats counts commands and occupancy for performance and power analysis.
type Stats struct {
	Reads              uint64 `json:"reads"`
	Writes             uint64 `json:"writes"`
	Activates          uint64 `json:"activates"`
	Precharges         uint64 `json:"precharges"`
	Refreshes          uint64 `json:"refreshes"`
	RowHits            uint64 `json:"row_hits"`
	RowMisses          uint64 `json:"row_misses"` // row conflicts (PRE+ACT needed)
	RowEmpty           uint64 `json:"row_empty"`  // bank closed (ACT needed)
	DemandReads        uint64 `json:"demand_reads"`
	PrefReads          uint64 `json:"pref_reads"`
	AllocReads         uint64 `json:"alloc_reads"`           // write-allocate fetches
	TotalDemandReadLat uint64 `json:"total_demand_read_lat"` // sum of demand read latencies
	BusBusy            uint64 `json:"bus_busy"`              // cycles the data bus carried bursts
	LastDone           uint64 `json:"last_done"`             // completion time of the latest burst

	// Power-down residency (Table 1's tCKE/tXP): cycles spent with CKE
	// low, and the number of power-down entries. Background power drops
	// sharply while powered down; each exit costs tXP before the next
	// command.
	PowerDownCycles  uint64 `json:"power_down_cycles"`
	PowerDownEntries uint64 `json:"power_down_entries"`

	// LatencyHist buckets demand read latencies: <50, <100, <200, <400,
	// <800, <1600, <3200, rest.
	LatencyHist [8]uint64 `json:"latency_hist"`
}

// latencyBucket maps a latency to its LatencyHist index.
func latencyBucket(lat uint64) int {
	bound := uint64(50)
	for i := 0; i < 7; i++ {
		if lat < bound {
			return i
		}
		bound *= 2
	}
	return 7
}

// AvgDemandReadLatency returns the mean demand read latency in cycles.
func (s Stats) AvgDemandReadLatency() float64 {
	if s.DemandReads == 0 {
		return 0
	}
	return float64(s.TotalDemandReadLat) / float64(s.DemandReads)
}

// Config parameterises a channel controller.
type Config struct {
	Timing   Timing
	Geometry addr.DRAMGeometry
	Window   int // FR-FCFS reorder window (requests considered per pick)
	// StarveLimit caps how many times the oldest queued request may be
	// bypassed by younger row-hit/demand requests before it is forced to
	// issue (the standard FR-FCFS anti-starvation counter).
	StarveLimit int
	// Linger is the longest a queued request may wait for FR-FCFS
	// reordering candidates, in cycles. A request is serviced as soon as
	// a newer arrival proves that much time has passed, so at low load
	// requests issue (and are timed) essentially at their arrival.
	Linger uint64
	// PowerDownIdle is the idle-cycle threshold after which the channel
	// enters precharge power-down (CKE low). Zero selects the default of
	// 4 × tREFI/100 ≈ a few hundred cycles; negative disables power-down.
	PowerDownIdle int
}

// DefaultConfig returns Table 1 timings, the default geometry and a
// 16-request reorder window.
func DefaultConfig() Config {
	return Config{Timing: Table1Timing(), Geometry: addr.DefaultDRAMGeometry(), Window: 16, StarveLimit: 4, Linger: 64}
}

type bankState struct {
	acted       bool   // bank has been activated at least once
	lastActAt   uint64 // issue time of last ACT
	earliestPre uint64 // earliest time a PRE may issue
	earliestCAS uint64 // earliest time a RD/WR may issue
}

// timingU holds every Timing-derived quantity the scheduling arithmetic
// needs, widened to uint64 once at construction. The legacy code converted
// (and re-derived BurstCycles) inline at each of the dozen use sites in
// execute — per serviced request; these are now single field loads.
type timingU struct {
	ras, rcd, rrd, rc, rp uint64
	ccd, rtp, wtr, wr     uint64
	rtrs, rfc, faw        uint64
	cke, xp               uint64
	cl, cwl, refi         uint64
	burst                 uint64 // BurstCycles(): BL/2
}

func makeTimingU(t Timing) timingU {
	return timingU{
		ras: uint64(t.TRAS), rcd: uint64(t.TRCD), rrd: uint64(t.TRRD),
		rc: uint64(t.TRC), rp: uint64(t.TRP), ccd: uint64(t.TCCD),
		rtp: uint64(t.TRTP), wtr: uint64(t.TWTR), wr: uint64(t.TWR),
		rtrs: uint64(t.TRTRS), rfc: uint64(t.TRFC), faw: uint64(t.TFAW),
		cke: uint64(t.TCKE), xp: uint64(t.TXP),
		cl: uint64(t.CL), cwl: uint64(t.CWL), refi: uint64(t.TREFI),
		burst: uint64(t.BurstCycles()),
	}
}

// Controller services one DRAM channel. Requests must be enqueued in
// non-decreasing arrival order; servicing happens lazily once the reorder
// window fills, and Flush drains the remainder. Not safe for concurrent use.
type Controller struct {
	cfg   Config
	tm    timingU // precomputed Timing constants (see timingU)
	banks []bankState

	// Per-bank open-row snapshot, packed for the FR-FCFS window scan: bit
	// b of hasRowBits says bank b has an open row, openRows[b] says which.
	// This pair is the single source of row state (bankState carries only
	// the per-bank timestamps), so the scan touches one mask word and one
	// row word per candidate instead of a 5-field struct.
	hasRowBits uint64
	openRows   []uint64

	// actRing holds the last four ACT issue times for the tRRD/tFAW
	// constraints in a fixed ring (actCount grows monotonically; slot
	// actCount&3 is the one an ACT four ago used, i.e. the next overwrite).
	// A ring instead of an appended-and-resliced slice keeps noteAct — the
	// single hottest call site of the controller — allocation-free.
	actRing       [4]uint64
	actCount      uint64
	lastActBank   int    // bank of the most recent ACT (scheduler hint)
	lastCASAt     uint64 // last RD/WR issue (tCCD)
	lastBusyAt    uint64 // completion time of the most recent activity
	lastWasWrite  bool
	lastWrDataEnd uint64 // end of last write burst (tWTR/tWR interactions)
	busFreeAt     uint64 // data bus availability
	nextRefresh   uint64

	// queue is a power-of-two ring: qhead indexes the oldest request,
	// qlen counts occupants. Head dequeue is O(1) and a window pick at
	// position i shifts at most Window-1 pointers (the legacy slice
	// shifted the entire queue down on every head removal).
	queue      []*Request
	qhead      int
	qlen       int
	headBypass int // consecutive picks that bypassed the oldest request
	stats      Stats

	// free holds serviced requests available for reuse through NewRequest,
	// so the per-record hot path of the simulator allocates no Request at
	// steady state. Its size is bounded by the controller's peak queue
	// occupancy.
	free []*Request

	// TraceFn, when non-nil, is invoked with every request right after it
	// is serviced (debugging and tooling hook). While it is set, serviced
	// requests are NOT recycled into the NewRequest freelist — the hook
	// may retain the pointer.
	TraceFn func(*Request)

	// tel, when non-nil, receives live scrape-safe observations (atomic
	// instruments, readable from other goroutines mid-run) in addition to
	// the local Stats counters, which stay single-goroutine-owned. See
	// SetTelemetry.
	tel *Telemetry
}

// Telemetry is the controller's set of live instruments, registered by the
// engine when telemetry is enabled (internal/telemetry). All fields may be
// nil individually; the whole struct pointer is nil when telemetry is off,
// and the hot path then pays exactly one pointer check per serviced
// request.
type Telemetry struct {
	// DemandReadLatency observes each demand read's total service latency
	// (queueing included) in cycles.
	DemandReadLatency *telemetry.Histogram
	// QueueDepth observes the controller queue occupancy at each Enqueue,
	// before the new request is pushed.
	QueueDepth *telemetry.Histogram
	// RowHits/RowMisses/RowEmpty mirror the Stats row-buffer outcome
	// counters as scrape-safe atomics.
	RowHits   *telemetry.Counter
	RowMisses *telemetry.Counter
	RowEmpty  *telemetry.Counter
}

// SetTelemetry installs (or, with nil, removes) the controller's live
// instruments. Call before the run starts; the controller never mutates
// the struct.
func (c *Controller) SetTelemetry(t *Telemetry) { c.tel = t }

// NewController builds a channel controller; it panics on invalid timing
// (construction-time programming error).
func NewController(cfg Config) *Controller {
	if err := cfg.Timing.Validate(); err != nil {
		panic(err)
	}
	if cfg.Window <= 0 {
		cfg.Window = 16
	}
	if cfg.StarveLimit <= 0 {
		cfg.StarveLimit = 4
	}
	if cfg.Linger == 0 {
		cfg.Linger = 64
	}
	g := cfg.Geometry
	if g.Banks == 0 {
		g = addr.DefaultDRAMGeometry()
		cfg.Geometry = g
	}
	return &Controller{
		cfg:         cfg,
		tm:          makeTimingU(cfg.Timing),
		banks:       make([]bankState, g.Banks),
		openRows:    make([]uint64, g.Banks),
		queue:       make([]*Request, 32),
		nextRefresh: uint64(cfg.Timing.TREFI),
	}
}

// Stats returns a snapshot of accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// NewRequest returns a zeroed Request, reusing a previously serviced one
// when available. Callers that enqueue per-event requests in a hot loop
// (the simulation engine) use this instead of allocating.
func (c *Controller) NewRequest() *Request {
	if n := len(c.free); n > 0 {
		r := c.free[n-1]
		c.free = c.free[:n-1]
		*r = Request{}
		return r
	}
	return &Request{}
}

// ResetStats zeroes the statistics counters without touching timing state
// (used to discard warmup).
func (c *Controller) ResetStats() { c.stats = Stats{} }

// qat returns the queued request at logical position i (0 = oldest).
func (c *Controller) qat(i int) *Request {
	return c.queue[(c.qhead+i)&(len(c.queue)-1)]
}

// qpush appends a request at the ring's tail, doubling the ring when full.
func (c *Controller) qpush(r *Request) {
	if c.qlen == len(c.queue) {
		grown := make([]*Request, 2*len(c.queue))
		for i := 0; i < c.qlen; i++ {
			grown[i] = c.qat(i)
		}
		c.queue = grown
		c.qhead = 0
	}
	c.queue[(c.qhead+c.qlen)&(len(c.queue)-1)] = r
	c.qlen++
}

// qremove removes and returns the request at logical position i, preserving
// the order of the rest: positions [0, i) shift up by one and the head
// advances. Cost is i pointer moves — at most Window-1, and zero for the
// common oldest-request case.
func (c *Controller) qremove(i int) *Request {
	mask := len(c.queue) - 1
	r := c.queue[(c.qhead+i)&mask]
	for j := i; j > 0; j-- {
		c.queue[(c.qhead+j)&mask] = c.queue[(c.qhead+j-1)&mask]
	}
	c.queue[c.qhead] = nil
	c.qhead = (c.qhead + 1) & mask
	c.qlen--
	return r
}

// Enqueue adds a request. Requests must arrive in non-decreasing order of
// Arrival; violations are reported so the engine's merge logic cannot rot
// silently. The request's DRAM coordinate is resolved here, once, and rides
// on the request through every subsequent window scan.
func (c *Controller) Enqueue(r *Request) error {
	if c.qlen > 0 && r.Arrival < c.qat(c.qlen-1).Arrival {
		return fmt.Errorf("dram: out-of-order enqueue: %d after %d", r.Arrival, c.qat(c.qlen-1).Arrival)
	}
	co := c.cfg.Geometry.Map(r.Block)
	r.bank, r.row = co.Bank, co.Row
	if c.tel != nil {
		c.tel.QueueDepth.Record(uint64(c.qlen))
	}
	c.qpush(r)
	arrival := r.Arrival
	for c.qlen > c.cfg.Window ||
		(c.qlen > 0 && c.qat(0).Arrival+c.cfg.Linger <= arrival) {
		c.serviceOne()
	}
	return nil
}

// Flush services every queued request.
func (c *Controller) Flush() {
	for c.qlen > 0 {
		c.serviceOne()
	}
}

// serviceOne picks the best candidate within the reorder window under
// FR-FCFS with demand priority, computes its command schedule analytically
// and records completion. The scan reads only each candidate's cached
// coordinate and the packed open-row snapshot — no geometry arithmetic and
// no bank-struct walk per visit.
func (c *Controller) serviceOne() {
	w := c.qlen
	if w > c.cfg.Window {
		w = c.cfg.Window
	}
	if c.headBypass >= c.cfg.StarveLimit {
		c.headBypass = 0
		c.execute(c.qremove(0))
		return
	}
	best := 0
	bestScore := -1
	mask := len(c.queue) - 1
	for i := 0; i < w; i++ {
		r := c.queue[(c.qhead+i)&mask]
		// FR-FCFS: open-row hits first (they are cheap and keep the
		// row open for their siblings), then demands over prefetches,
		// then bank readiness (avoid back-to-back ACTs on one bank,
		// which serialise on tRC), then age.
		score := 0
		if c.hasRowBits&(1<<uint(r.bank)) != 0 && c.openRows[r.bank] == r.row {
			score += 8
		}
		if !r.Prefetch {
			score += 4
		}
		if r.bank != c.lastActBank {
			score++
		}
		if score > bestScore {
			bestScore = score
			best = i
		}
	}
	if best == 0 {
		c.headBypass = 0
	} else {
		c.headBypass++
	}
	c.execute(c.qremove(best))
}

// refreshDelay advances the refresh schedule up to time t and returns the
// earliest command time at or after t that does not collide with a refresh
// window. Refresh is modelled as an all-bank operation closing every row.
func (c *Controller) refreshDelay(t uint64) uint64 {
	for t >= c.nextRefresh {
		refEnd := c.nextRefresh + c.tm.rfc
		c.stats.Refreshes++
		c.hasRowBits = 0
		for i := range c.banks {
			if c.banks[i].earliestCAS < refEnd {
				c.banks[i].earliestCAS = refEnd
			}
			if c.banks[i].earliestPre < refEnd {
				c.banks[i].earliestPre = refEnd
			}
		}
		if t < refEnd {
			t = refEnd
		}
		c.nextRefresh += c.tm.refi
	}
	return t
}

// actConstraint returns the earliest time an ACT may issue at or after t,
// honouring tRRD against the previous ACT and the tFAW sliding window.
func (c *Controller) actConstraint(t uint64) uint64 {
	if c.actCount > 0 {
		if e := c.actRing[(c.actCount-1)&3] + c.tm.rrd; e > t {
			t = e
		}
	}
	if c.actCount >= 4 {
		// Four ACTs ago sits in the slot the next noteAct overwrites.
		if e := c.actRing[c.actCount&3] + c.tm.faw; e > t {
			t = e
		}
	}
	return t
}

func (c *Controller) noteAct(t uint64) {
	c.actRing[c.actCount&3] = t
	c.actCount++
	c.stats.Activates++
}

// powerDown models precharge power-down across an idle gap before time t:
// if the channel was idle long enough to pull CKE low (threshold + tCKE),
// the powered-down cycles are recorded and the wake-up costs tXP.
func (c *Controller) powerDown(t uint64) uint64 {
	if c.cfg.PowerDownIdle < 0 {
		return t
	}
	threshold := uint64(c.cfg.PowerDownIdle)
	if threshold == 0 {
		threshold = 4 * c.tm.refi / 100
	}
	if t > c.lastBusyAt && t-c.lastBusyAt > threshold+c.tm.cke {
		c.stats.PowerDownEntries++
		c.stats.PowerDownCycles += t - c.lastBusyAt - threshold
		t += c.tm.xp
	}
	return t
}

// execute schedules the commands for request r and fills its outputs,
// working entirely from the coordinate cached at Enqueue and the
// precomputed timing constants.
func (c *Controller) execute(r *Request) {
	tm := &c.tm
	bank, row := r.bank, r.row
	b := &c.banks[bank]

	t := c.refreshDelay(r.Arrival)
	t = c.powerDown(t)

	bankBit := uint64(1) << uint(bank)
	hasRow := c.hasRowBits&bankBit != 0
	rowHit := hasRow && c.openRows[bank] == row
	switch {
	case rowHit:
		c.stats.RowHits++
	case hasRow:
		c.stats.RowMisses++
	default:
		c.stats.RowEmpty++
	}
	if c.tel != nil {
		switch {
		case rowHit:
			c.tel.RowHits.Inc()
		case hasRow:
			c.tel.RowMisses.Inc()
		default:
			c.tel.RowEmpty.Inc()
		}
	}

	if !rowHit {
		if hasRow {
			// Row conflict: precharge, then activate.
			pre := maxU(t, b.earliestPre)
			c.stats.Precharges++
			actMin := pre + tm.rp
			if e := b.lastActAt + tm.rc; e > actMin {
				actMin = e
			}
			t = c.actConstraint(actMin)
		} else {
			if e := b.lastActAt + tm.rc; b.acted && e > t {
				t = e
			}
			t = c.actConstraint(t)
		}
		c.noteAct(t)
		c.lastActBank = bank
		b.acted = true
		b.lastActAt = t
		c.hasRowBits |= bankBit
		c.openRows[bank] = row
		b.earliestPre = t + tm.ras
		b.earliestCAS = t + tm.rcd
	}

	// CAS issue time: bank ready, channel CAS-to-CAS gap, turnaround and
	// data-bus availability.
	cas := maxU(t, b.earliestCAS)
	if e := c.lastCASAt + tm.ccd; e > cas && c.stats.Reads+c.stats.Writes > 0 {
		cas = e
	}
	burst := tm.burst
	if r.Write {
		// Data occupies the bus CWL after the WR command.
		if e := c.busFreeAt; e > cas+tm.cwl {
			cas = e - tm.cwl
		}
		if !c.lastWasWrite && c.stats.Reads > 0 {
			// read→write turnaround
			if e := c.busFreeAt + tm.rtrs; e > cas+tm.cwl {
				cas = e - tm.cwl
			}
		}
		dataStart := cas + tm.cwl
		dataEnd := dataStart + burst
		c.busFreeAt = dataEnd
		c.lastWrDataEnd = dataEnd
		c.lastWasWrite = true
		c.lastCASAt = cas
		// Write recovery gates future PRE.
		if e := dataEnd + tm.wr; e > b.earliestPre {
			b.earliestPre = e
		}
		c.stats.Writes++
		c.stats.BusBusy += burst
		r.IssueAt = cas
		r.Done = dataEnd
	} else {
		if c.lastWasWrite {
			// write→read turnaround: tWTR after the write burst.
			if e := c.lastWrDataEnd + tm.wtr; e > cas {
				cas = e
			}
		}
		if e := c.busFreeAt; e > cas+tm.cl {
			cas = e - tm.cl
		}
		dataStart := cas + tm.cl
		dataEnd := dataStart + burst
		c.busFreeAt = dataEnd
		c.lastWasWrite = false
		c.lastCASAt = cas
		// Read-to-precharge constraint.
		if e := cas + tm.rtp; e > b.earliestPre {
			b.earliestPre = e
		}
		c.stats.Reads++
		c.stats.BusBusy += burst
		switch {
		case r.Prefetch:
			c.stats.PrefReads++
		case r.WriteAlloc:
			c.stats.AllocReads++
		default:
			c.stats.DemandReads++
			c.stats.TotalDemandReadLat += dataEnd - r.Arrival
			c.stats.LatencyHist[latencyBucket(dataEnd-r.Arrival)]++
			if c.tel != nil {
				c.tel.DemandReadLatency.Record(dataEnd - r.Arrival)
			}
		}
		r.IssueAt = cas
		r.Done = dataEnd
	}
	if r.Done > c.stats.LastDone {
		c.stats.LastDone = r.Done
	}
	if r.Done > c.lastBusyAt {
		c.lastBusyAt = r.Done
	}
	r.RowHit = rowHit
	r.Serviced = true
	if c.TraceFn != nil {
		c.TraceFn(r) // hook may retain r: do not recycle
		return
	}
	c.free = append(c.free, r)
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
