package core

import (
	"math/bits"

	"repro/internal/bitmap"
	"repro/internal/hashidx"
)

// pageTable is a fully associative table of page footprints — SLP's Filter
// and Accumulation Tables and TLP's Recent Page Table — as struct-of-arrays
// lanes: live slot i holds page number pages[i], its footprint bits[i] and
// the cycle of its last access last[i]. Bit i of free is set while slot i
// holds no entry, so its lowest set bit is the first free slot, and lru
// orders the live slots by (last, slot), so its oldest slot is the least
// recently used entry, lowest slot on ties.
type pageTable struct {
	pages, last, free []uint64
	bits              []bitmap.Seg16
	lru               recency
	// idx is the page → slot index, emulating the hardware CAM lookup;
	// open addressing keeps it allocation-free under churn.
	idx *hashidx.U64
}

// pageArena backs the lanes of one or more page tables with one
// allocation per lane type.
type pageArena struct {
	u64   []uint64
	seg   []bitmap.Seg16
	links []int32
}

// newPageArena sizes an arena for tables of the given entry counts.
func newPageArena(sizes ...int) pageArena {
	var u64, n int
	for _, s := range sizes {
		u64 += 2*s + (s+63)/64
		n += s
	}
	return pageArena{u64: make([]uint64, u64), seg: make([]bitmap.Seg16, n), links: make([]int32, 2*n)}
}

// table carves an empty n-entry table from the arena.
func (a *pageArena) table(n int) pageTable {
	t := pageTable{
		pages: carve(&a.u64, n),
		last:  carve(&a.u64, n),
		free:  carve(&a.u64, (n+63)/64),
		bits:  carve(&a.seg, n),
		idx:   hashidx.New(n),
	}
	t.lru = newRecency(t.last, carve(&a.links, 2*n))
	t.reset()
	return t
}

// carve splits the first n elements off *arena.
func carve[T any](arena *[]T, n int) []T {
	s := (*arena)[:n:n]
	*arena = (*arena)[n:]
	return s
}

// reset frees every slot.
func (t *pageTable) reset() {
	for w := range t.free {
		t.free[w] = ^uint64(0)
	}
	if r := len(t.pages) % 64; r != 0 {
		t.free[len(t.free)-1] = 1<<r - 1
	}
	t.lru.reset()
	t.idx.Reset()
}

// live reports whether slot i holds an entry.
func (t *pageTable) live(i int) bool { return t.free[i/64]&(1<<(i%64)) == 0 }

// slot returns the slot for a new entry: the first free one or, when none
// is free, the least recently used (evict=true), which still holds its
// entry.
func (t *pageTable) slot() (i int, evict bool) {
	for w, m := range t.free {
		if m != 0 {
			return w*64 + bits.TrailingZeros64(m), false
		}
	}
	return int(t.lru.oldest), true
}

// put stores a new entry for page p in slot i, replacing any entry there.
func (t *pageTable) put(i int, p uint64, b bitmap.Seg16, now uint64) {
	if t.live(i) {
		t.drop(i)
	}
	t.free[i/64] &^= 1 << (i % 64)
	t.pages[i], t.bits[i], t.last[i] = p, b, now
	t.lru.insert(i)
	t.idx.Put(p, int32(i))
}

// touch records an access to block off of live slot i at cycle now.
func (t *pageTable) touch(i, off int, now uint64) {
	t.bits[i] = t.bits[i].Set(off)
	t.last[i] = now
	t.lru.touch(i)
}

// drop frees live slot i.
func (t *pageTable) drop(i int) {
	t.free[i/64] |= 1 << (i % 64)
	t.lru.remove(i)
	t.idx.Delete(t.pages[i])
}
