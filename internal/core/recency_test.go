package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestRecencyMatchesScan drives the recency list through random inserts,
// touches and removals, with keys that repeat, rise and run backwards, and
// a reset midway. After every operation its oldest slot must be the naive
// LRU scan's pick (smallest key, lowest slot on ties), and walking the list
// from oldest to newest must visit every live slot once, in strictly
// ascending (key, slot) order, with the backward links mirroring the
// forward ones.
func TestRecencyMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 130} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			key := make([]uint64, n)
			live := make([]bool, n)
			r := newRecency(key, make([]int32, 2*n))
			const steps = 20000
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					r.reset()
					clear(live)
				}
				i := rng.Intn(n)
				// A key near step/4: mostly rising, often equal to
				// another live key, sometimes below the slot's old one.
				k := uint64(step/4 + rng.Intn(8))
				switch {
				case !live[i]:
					key[i] = k
					r.insert(i)
					live[i] = true
				case rng.Intn(4) == 0:
					r.remove(i)
					live[i] = false
				default:
					key[i] = k
					r.touch(i)
				}
				checkRecency(t, step, r, key, live)
			}
		})
	}
}

func checkRecency(t *testing.T, step int, r recency, key []uint64, live []bool) {
	t.Helper()
	want, nlive := noSlot, 0
	for i, l := range live {
		if !l {
			continue
		}
		nlive++
		if want == noSlot || key[i] < key[want] {
			want = i
		}
	}
	if int(r.oldest) != want {
		t.Fatalf("step %d: oldest %d, scan picks %d", step, r.oldest, want)
	}
	prev, seen := int32(noSlot), 0
	for s := r.oldest; s != noSlot; s = r.newer[s] {
		if !live[s] || seen == nlive {
			t.Fatalf("step %d: list visits slot %d (live %v) after %d of %d live slots", step, s, live[s], seen, nlive)
		}
		if r.older[s] != prev {
			t.Fatalf("step %d: slot %d links back to %d, want %d", step, s, r.older[s], prev)
		}
		if prev != noSlot && (key[prev] > key[s] || key[prev] == key[s] && prev > s) {
			t.Fatalf("step %d: slot %d (key %d) follows slot %d (key %d)", step, s, key[s], prev, key[prev])
		}
		prev = s
		seen++
	}
	if seen != nlive || r.newest != prev {
		t.Fatalf("step %d: list holds %d of %d live slots, newest %d, walk ends at %d", step, seen, nlive, r.newest, prev)
	}
}
