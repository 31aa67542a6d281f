package main

import (
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/prefetch"
)

// sampleEvery is the stride of timed calls: a clock read costs about as much
// as a stride prefetcher's Train, so timing every call would mostly measure
// the clock.
const sampleEvery = 16

// clockCost is the duration of an empty timed interval in nanoseconds,
// subtracted from every sampled call.
var clockCost = calibrateClock()

// calibrateClock returns the smallest mean empty-interval duration over
// several batches.
func calibrateClock() float64 {
	best := math.Inf(1)
	for b := 0; b < 50; b++ {
		var sum time.Duration
		for i := 0; i < 200; i++ {
			t := time.Now()
			sum += time.Since(t)
		}
		best = math.Min(best, float64(sum)/200)
	}
	return best
}

// callTimer times every sampleEvery-th call of one kind and estimates the
// time of all of them.
type callTimer struct {
	calls, sampled int64
	ns             int64 // summed over the sampled calls
}

// begin counts a call and, when it is sampled, returns its start time.
func (c *callTimer) begin() (time.Time, bool) {
	c.calls++
	if c.calls%sampleEvery != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *callTimer) end(start time.Time) {
	c.ns += int64(time.Since(start))
	c.sampled++
}

// total estimates the nanoseconds spent in all calls: the sampled mean, net
// of the clock's own cost, times the call count.
func (c *callTimer) total() float64 {
	if c.sampled == 0 {
		return 0
	}
	return (float64(c.ns)/float64(c.sampled) - clockCost) * float64(c.calls)
}

// perCall is total divided by the call count.
func (c *callTimer) perCall() float64 { return ratio(c.total(), float64(c.calls)) }

// add pools o's calls and samples into c.
func (c *callTimer) add(o callTimer) {
	c.calls += o.calls
	c.sampled += o.sampled
	c.ns += o.ns
}

// timed wraps a prefetcher and times the calls into it. It is transparent:
// the engine and a tournament see the same name, candidates, origin and
// storage as from the bare prefetcher, so reports stay byte-identical
// (wrap_test.go pins this).
type timed struct {
	inner  prefetch.Prefetcher
	issuer prefetch.BufferedIssuer // inner's fast path, nil when it has none

	// capture, when set, records every trained access for the replays.
	capture  bool
	accesses []prefetch.Access

	train, issue, peek callTimer
	cands              int64 // candidates returned by IssueTo
	nonEmpty           int64 // IssueTo calls that returned candidates
}

func newTimed(inner prefetch.Prefetcher, capture bool) *timed {
	t := &timed{inner: inner, capture: capture}
	t.issuer, _ = inner.(prefetch.BufferedIssuer)
	return t
}

func (t *timed) Name() string     { return t.inner.Name() }
func (t *timed) StorageBits() int { return t.inner.StorageBits() }
func (t *timed) Reset()           { t.inner.Reset() }

// Origin forwards the composite's origin; for a prefetcher without one it
// returns "", which the engine and the tournament treat like no tracker.
func (t *timed) Origin() string {
	if o, ok := t.inner.(interface{ Origin() string }); ok {
		return o.Origin()
	}
	return ""
}

func (t *timed) Train(a prefetch.Access) {
	if t.capture {
		t.accesses = append(t.accesses, a)
	}
	start, ok := t.train.begin()
	t.inner.Train(a)
	if ok {
		t.train.end(start)
	}
}

func (t *timed) Issue(a prefetch.Access) []addr.BlockNum { return t.IssueTo(a, nil) }

func (t *timed) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	base := len(dst)
	start, ok := t.issue.begin()
	if t.issuer != nil {
		dst = t.issuer.IssueTo(a, dst)
	} else {
		dst = append(dst, t.inner.Issue(a)...)
	}
	if ok {
		t.issue.end(start)
	}
	if n := len(dst) - base; n > 0 {
		t.cands += int64(n)
		t.nonEmpty++
	}
	return dst
}

// Peek is only called by a tournament, whose components all implement
// prefetch.Component.
func (t *timed) Peek(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	start, ok := t.peek.begin()
	dst = t.inner.(prefetch.Component).Peek(a, dst)
	if ok {
		t.peek.end(start)
	}
	return dst
}

// newTournamentMirror builds the tournament sim.TournamentPrefetcher builds
// for one channel, with each component wrapped in a timer. The components
// come back in tournamentComponents order.
func newTournamentMirror() (*prefetch.Tournament, []*timed) {
	comps := []*timed{
		newTimed(core.New(core.DefaultConfig()), false),
		newTimed(prefetch.NewStride(256, 2), false),
		newTimed(prefetch.NewMarkov(prefetch.DefaultMarkovConfig()), false),
		newTimed(prefetch.NewAccel(prefetch.DefaultAccelConfig()), false),
	}
	t := prefetch.NewTournament(prefetch.TournamentConfig{Name: "planaria-tournament"},
		comps[0], comps[1], comps[2], comps[3])
	return t, comps
}

// planariaOf returns the Planaria composite inside pf (bare, wrapped, or a
// tournament's first component), or nil.
func planariaOf(pf prefetch.Prefetcher) *core.Planaria {
	if t, ok := pf.(*timed); ok {
		pf = t.inner
	}
	if t, ok := pf.(*prefetch.Tournament); ok {
		pf = t.Components()[0]
	}
	p, _ := pf.(*core.Planaria)
	return p
}
