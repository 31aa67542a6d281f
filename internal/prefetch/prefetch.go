package prefetch

import (
	"repro/internal/addr"
	"repro/internal/hashidx"
)

// Access is one demand access as seen at the system-cache level. There is
// deliberately no program counter: the paper's setting is the memory side,
// where a PC is unavailable (Section 3.2).
type Access struct {
	Block addr.BlockNum // accessed block
	Cycle uint64        // arrival cycle
	Write bool          // write access
	Miss  bool          // missed in the system cache
}

// Page returns the accessed page.
func (a Access) Page() addr.PageNum { return a.Block.Page() }

// Prefetcher is a memory-side prefetcher with decoupled learning and issuing
// phases. Implementations are driven single-threaded per channel.
type Prefetcher interface {
	// Name returns a short mnemonic ("slp", "bop", ...).
	Name() string
	// Train observes a demand access and updates internal pattern state.
	// Every demand access is passed to Train, hits and misses alike.
	Train(a Access)
	// Issue returns the blocks to prefetch in response to a demand
	// access, or nil. The engine calls Issue after Train for the same
	// access. Returned blocks may include already-resident targets; the
	// engine filters them.
	Issue(a Access) []addr.BlockNum
	// StorageBits returns the hardware metadata budget of this
	// prefetcher instance in bits, for the paper's storage accounting.
	StorageBits() int
	// Reset clears all learned state.
	Reset()
}

// BufferedIssuer is the allocation-free extension of Prefetcher: IssueTo
// appends the blocks Issue would return for a to dst and returns the
// extended slice, with exactly Issue's side effects (statistics, origin
// tracking, events). The engine discovers it by type assertion once at
// construction — like the origin and event-sink interfaces — and threads a
// persistent per-channel buffer through it, so implementations never
// allocate per trigger. Every built-in prefetcher implements it; Prefetcher
// alone remains sufficient for custom implementations, at the cost of one
// slice allocation per Issue.
type BufferedIssuer interface {
	IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum
}

// Component is a tournament entrant: a Prefetcher that can additionally
// predict without side effects. Peek appends to dst the blocks the
// component would issue for a and returns the extended slice; it must not
// mutate learned state, statistics or emit events, because the tournament
// calls it on every component for every trigger (shadow evaluation) to
// score the meta-predictor's trust counters. Implementations should treat
// dst as scratch owned by the caller and never retain it.
//
// Peek(a) must equal what Issue(a) would return at the same point: the
// tournament relies on it and never re-peeks a component whose Issue just
// came back empty on the same trigger.
type Component interface {
	Prefetcher
	Peek(a Access, dst []addr.BlockNum) []addr.BlockNum
}

// None is the no-prefetcher baseline.
type None struct{}

// Name implements Prefetcher.
func (None) Name() string { return "none" }

// Train implements Prefetcher.
func (None) Train(Access) {}

// Issue implements Prefetcher.
func (None) Issue(Access) []addr.BlockNum { return nil }

// StorageBits implements Prefetcher.
func (None) StorageBits() int { return 0 }

// Reset implements Prefetcher.
func (None) Reset() {}

// Stats counts queue-level prefetch events for one channel.
type Stats struct {
	Candidates uint64 `json:"candidates"` // blocks proposed by the prefetcher
	Filtered   uint64 `json:"filtered"`   // dropped: already resident or in flight
	Issued     uint64 `json:"issued"`     // entered the prefetch queue
	Dropped    uint64 `json:"dropped"`    // queue full
}

// Queue is the bounded prefetch queue between a prefetcher and a DRAM
// channel (Figure 1: "the generated prefetch requests are inserted into the
// prefetch queue"). It deduplicates in-flight targets. The pending entries
// live in a fixed ring and the in-flight set is an open-addressing index,
// so steady-state Push/Pop/Complete never allocate (the old slice-reslice
// pop and map-backed set dominated the engine's allocation profile).
type Queue struct {
	capLimit int
	ring     []addr.BlockNum // fixed ring of capLimit slots
	head     int             // index of the oldest queued target
	count    int             // queued (not yet popped) targets
	inflight *hashidx.U64    // queued + popped-but-not-Completed targets
	stats    Stats
}

// NewQueue builds a queue with the given capacity (≤0 means a default of 32).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 32
	}
	return &Queue{
		capLimit: capacity,
		ring:     make([]addr.BlockNum, capacity),
		inflight: hashidx.New(2 * capacity),
	}
}

// Stats returns a snapshot of the queue statistics.
func (q *Queue) Stats() Stats { return q.stats }

// ResetStats zeroes the counters without touching queue contents (used to
// discard warmup).
func (q *Queue) ResetStats() { q.stats = Stats{} }

// Len returns the number of queued (not yet popped) targets.
func (q *Queue) Len() int { return q.count }

// Push offers a candidate. resident reports whether the block is already in
// the cache (the engine passes a closure over the channel's cache slice).
// It returns true when the candidate was queued.
func (q *Queue) Push(b addr.BlockNum, resident bool) bool {
	q.stats.Candidates++
	if resident {
		q.stats.Filtered++
		return false
	}
	if _, ok := q.inflight.Get(uint64(b)); ok {
		q.stats.Filtered++
		return false
	}
	if q.count >= q.capLimit {
		q.stats.Dropped++
		return false
	}
	q.ring[(q.head+q.count)%q.capLimit] = b
	q.count++
	q.inflight.Put(uint64(b), 0)
	q.stats.Issued++
	return true
}

// Reject records a candidate refused before reaching the queue (e.g. the
// per-trigger insert bandwidth limit).
func (q *Queue) Reject() {
	q.stats.Candidates++
	q.stats.Dropped++
}

// Pop removes and returns the oldest queued target.
func (q *Queue) Pop() (addr.BlockNum, bool) {
	if q.count == 0 {
		return 0, false
	}
	b := q.ring[q.head]
	q.head = (q.head + 1) % q.capLimit
	q.count--
	return b, true
}

// Complete marks a previously popped target as filled into the cache,
// releasing its in-flight slot.
func (q *Queue) Complete(b addr.BlockNum) {
	q.inflight.Delete(uint64(b))
}

// InFlight reports whether b is queued or outstanding.
func (q *Queue) InFlight(b addr.BlockNum) bool {
	_, ok := q.inflight.Get(uint64(b))
	return ok
}
