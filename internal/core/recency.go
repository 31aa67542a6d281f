package core

// noSlot marks either end of a recency list.
const noSlot = -1

// recency keeps the live slots of a fully associative table in a doubly
// linked list ordered by (key, slot), where key is the table's own
// last-access lane. Its oldest slot is therefore exactly the pick of a
// linear "smallest key, lowest slot on ties" LRU scan, found without the
// scan.
//
// insert walks from the newest end towards the oldest until it finds the
// slot's place. While the keys do not run backwards, as in every generated
// trace, the walk stops at its first step unless it meets equal keys of
// higher slots. Trace files do not guarantee ordered cycles; a key that
// runs backwards walks further, at worst O(table), and the order stays
// exact.
type recency struct {
	key            []uint64 // the table's last-access lane, read only
	older, newer   []int32  // neighbour slots, noSlot past either end
	oldest, newest int32    // noSlot when the list is empty
}

// newRecency builds an empty list over key; links (2·len(key) entries)
// backs the neighbour lanes.
func newRecency(key []uint64, links []int32) recency {
	n := len(key)
	return recency{key: key, older: links[:n:n], newer: links[n : 2*n : 2*n], oldest: noSlot, newest: noSlot}
}

// reset empties the list.
func (r *recency) reset() { r.oldest, r.newest = noSlot, noSlot }

// insert links slot i, not in the list, at its (key, slot) place.
func (r *recency) insert(i int) {
	k, s := r.key[i], int32(i)
	o := r.newest
	for o != noSlot && (r.key[o] > k || r.key[o] == k && o > s) {
		o = r.older[o]
	}
	n := r.oldest
	if o != noSlot {
		n = r.newer[o]
		r.newer[o] = s
	} else {
		r.oldest = s
	}
	if n != noSlot {
		r.older[n] = s
	} else {
		r.newest = s
	}
	r.older[s], r.newer[s] = o, n
}

// remove unlinks slot i.
func (r *recency) remove(i int) {
	o, n := r.older[i], r.newer[i]
	if o != noSlot {
		r.newer[o] = n
	} else {
		r.oldest = n
	}
	if n != noSlot {
		r.older[n] = o
	} else {
		r.newest = o
	}
}

// touch re-places slot i after its key changed.
func (r *recency) touch(i int) {
	r.remove(i)
	r.insert(i)
}
