// Package hashidx provides a small open-addressing uint64 → int32 index
// with deterministic, allocation-free steady-state behaviour.
//
// The simulator's hot paths (the SLP filter/accumulation table indices and
// the TLP recent-page-table index) need an O(1) key → slot lookup with
// frequent insert/delete churn. Go's built-in map is unsuitable for the
// zero-allocation contract: under sustained delete/insert churn it can
// still allocate overflow buckets long after warm-up, which trips the
// testing.AllocsPerRun gates. This index uses linear probing with
// backward-shift deletion (no tombstones), so after the backing arrays
// reach their high-water size, Put/Get/Delete never allocate.
package hashidx

// U64 maps uint64 keys to int32 values. The zero value is not usable; build
// instances with New. Not safe for concurrent use.
type U64 struct {
	keys []uint64
	vals []int32
	used []bool
	mask uint64
	n    int
}

// New returns an index pre-sized for the given number of live entries.
// Capacity is a sizing hint, not a limit: the table grows (reallocating)
// whenever the load factor would exceed 1/2, so pre-sizing merely moves all
// allocation to construction time.
func New(capacity int) *U64 {
	if capacity < 4 {
		capacity = 4
	}
	size := 8
	for size < 4*capacity {
		size <<= 1
	}
	x := &U64{}
	x.init(size)
	return x
}

func (x *U64) init(size int) {
	x.keys = make([]uint64, size)
	x.vals = make([]int32, size)
	x.used = make([]bool, size)
	x.mask = uint64(size - 1)
	x.n = 0
}

// home is the key's preferred slot: a Fibonacci multiplicative hash keeps
// clustered page numbers (the common key distribution here) well spread.
func (x *U64) home(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 40 & x.mask // high bits carry the mixing
}

// Len returns the number of live entries.
func (x *U64) Len() int { return x.n }

// Get returns the value stored for k.
func (x *U64) Get(k uint64) (int32, bool) {
	for i := x.home(k); x.used[i]; i = (i + 1) & x.mask {
		if x.keys[i] == k {
			return x.vals[i], true
		}
	}
	return 0, false
}

// Put inserts or replaces the value for k.
func (x *U64) Put(k uint64, v int32) {
	if uint64(x.n+1)*2 > x.mask+1 {
		x.grow()
	}
	i := x.home(k)
	for x.used[i] {
		if x.keys[i] == k {
			x.vals[i] = v
			return
		}
		i = (i + 1) & x.mask
	}
	x.keys[i], x.vals[i], x.used[i] = k, v, true
	x.n++
}

// Delete removes k if present, using backward-shift deletion: every entry of
// the probe chain after the hole is moved back when doing so does not detach
// it from its own home slot, so lookups never need tombstones.
func (x *U64) Delete(k uint64) {
	i := x.home(k)
	for {
		if !x.used[i] {
			return
		}
		if x.keys[i] == k {
			break
		}
		i = (i + 1) & x.mask
	}
	x.n--
	j := i
	for {
		x.used[i] = false
		for {
			j = (j + 1) & x.mask
			if !x.used[j] {
				return
			}
			h := x.home(x.keys[j])
			// The entry at j may fill the hole at i only when its home h
			// does not lie cyclically within (i, j] — otherwise moving it
			// before its home would break its probe chain.
			if i <= j {
				if h <= i || h > j {
					break
				}
			} else if h <= i && h > j {
				break
			}
		}
		x.keys[i], x.vals[i], x.used[i] = x.keys[j], x.vals[j], true
		i = j
	}
}

// Reset empties the index in place, keeping the backing arrays.
func (x *U64) Reset() {
	for i := range x.used {
		x.used[i] = false
	}
	x.n = 0
}

// grow doubles the table and rehashes every live entry.
func (x *U64) grow() {
	keys, vals, used := x.keys, x.vals, x.used
	x.init(2 * len(keys))
	for i, u := range used {
		if u {
			x.Put(keys[i], vals[i])
		}
	}
}
