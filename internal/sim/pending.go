package sim

import (
	"repro/internal/addr"
	"repro/internal/events"
)

// pendingFill is one in-flight prefetch: issued to DRAM, not yet usable in
// the SC. Entries are FIFO by readiness because the fill latency is
// constant.
type pendingFill struct {
	block    addr.BlockNum
	ready    uint64
	usedLate bool          // a demand already waited on this fill
	origin   events.Origin // the issuing trigger's origin
}

// pendingRing is a growable power-of-two circular buffer of in-flight
// prefetches. It replaces the earlier slice-plus-index-map scheme: the
// slice's pop-front (`pending = pending[1:]`) forced a reallocation every
// time append caught up with the shifted backing array, and the map cost a
// hash insert/delete per prefetch. The ring reaches a steady state with
// zero allocations, and lookups linear-scan the live entries — the issue
// filter never sends a block that find reports, so there is at most one
// live entry per block, and profiles show the ring holding only the
// prefetches issued within the last PrefetchLatency cycles (a handful), so
// the scan beats hashing.
type pendingRing struct {
	buf  []pendingFill // len is a power of two (or zero before first push)
	head int
	n    int
}

// size returns the number of live entries.
func (r *pendingRing) size() int { return r.n }

// push appends an entry at the tail.
func (r *pendingRing) push(p pendingFill) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

// front returns the oldest entry; it must not be called on an empty ring.
func (r *pendingRing) front() *pendingFill { return &r.buf[r.head] }

// pop removes the oldest entry.
func (r *pendingRing) pop() {
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// find returns the live entry for block b, or nil. The returned pointer is
// invalidated by the next push (the buffer may be reallocated); callers
// finish with it before issuing new prefetches.
func (r *pendingRing) find(b addr.BlockNum) *pendingFill {
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		if p := &r.buf[(r.head+i)&mask]; p.block == b {
			return p
		}
	}
	return nil
}

// grow doubles the buffer, unwrapping the live entries to the front.
func (r *pendingRing) grow() {
	size := 2 * len(r.buf)
	if size == 0 {
		size = 16
	}
	nb := make([]pendingFill, size)
	mask := len(r.buf) - 1
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&mask]
	}
	r.buf, r.head = nb, 0
}
