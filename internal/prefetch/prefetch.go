package prefetch

import "repro/internal/addr"

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
func (n None) Issue(a Access) []addr.BlockNum { return n.IssueTo(a, nil) }

// IssueTo implements BufferedIssuer.
func (None) IssueTo(_ Access, dst []addr.BlockNum) []addr.BlockNum { return dst }

// StorageBits implements Prefetcher.
func (None) StorageBits() int { return 0 }

// Reset implements Prefetcher.
func (None) Reset() {}

// Stats counts one execution unit's prefetch candidates by outcome; every
// candidate lands in exactly one of Filtered, Issued and Dropped.
type Stats struct {
	Candidates uint64 `json:"candidates"` // blocks proposed by the prefetcher
	Filtered   uint64 `json:"filtered"`   // resident, in flight, or proposed earlier in the trigger
	Issued     uint64 `json:"issued"`     // sent to DRAM
	Dropped    uint64 `json:"dropped"`    // another unit's block, or the trigger's limit reached
}
