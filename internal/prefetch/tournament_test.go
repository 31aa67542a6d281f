package prefetch

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/events"
)

// fixed is a test component that always predicts the same in-segment offsets
// for any miss. It also counts Peeks, and the Peeks that follow an empty
// IssueTo on the same trigger (Train starts a new trigger).
type fixed struct {
	name      string
	offs      []int
	mute      bool // predict nothing at all
	train     int  // Train call count (checks all-components training)
	empty     bool // the last IssueTo since Train appended nothing
	peeks     int
	redundant int // Peeks after an empty IssueTo on the same trigger
}

func (f *fixed) Name() string                   { return f.name }
func (f *fixed) Train(Access)                   { f.train++; f.empty = false }
func (f *fixed) StorageBits() int               { return 0 }
func (f *fixed) Reset()                         { f.train = 0 }
func (f *fixed) Issue(a Access) []addr.BlockNum { return f.IssueTo(a, nil) }
func (f *fixed) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	out := f.predict(a, dst)
	f.empty = len(out) == len(dst)
	return out
}
func (f *fixed) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	f.peeks++
	if f.empty {
		f.redundant++
	}
	return f.predict(a, dst)
}
func (f *fixed) predict(a Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss || f.mute {
		return dst
	}
	for _, o := range f.offs {
		dst = append(dst, a.Page().Block(addr.OffsetOf(a.Block.Channel(), o)))
	}
	return dst
}

// captureSink records emitted events for assertions.
type captureSink struct{ evs []events.Event }

func (c *captureSink) Emit(e events.Event) { c.evs = append(c.evs, e) }

func missAt(page addr.PageNum, off int) Access {
	return Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
}

// followerPage returns a page whose meta region is neither component's
// leader (region%metaLeaderMod >= n).
func followerPage(m *Meta, n int) addr.PageNum {
	for p := addr.PageNum(0); ; p += 64 {
		if r := m.Region(p); r%metaLeaderMod >= n {
			return p
		}
	}
}

func TestTournamentFallbackOrder(t *testing.T) {
	a := &fixed{name: "a", mute: true}
	b := &fixed{name: "b", offs: []int{7}}
	tour := NewTournament(TournamentConfig{}, a, b)
	sink := &captureSink{}
	tour.SetEventSink(sink)

	// Page 0 → region 0 → leader of component 0 (a), which is mute, so the
	// trigger falls through the priority order to b.
	out := tour.Issue(missAt(0, 1))
	if len(out) != 1 || out[0].SegOffset() != 7 {
		t.Fatalf("Issue = %v, want the fallback component's offset 7", out)
	}
	if tour.Origin() != "b" {
		t.Fatalf("Origin = %q, want b", tour.Origin())
	}
	if got := tour.IssuesByComponent(); got["a"] != 0 || got["b"] != 1 {
		t.Fatalf("IssuesByComponent = %v", got)
	}
	if len(sink.evs) != 1 || sink.evs[0].Kind != events.KindArbitration {
		t.Fatalf("events = %v, want one arbitration", sink.evs)
	}
	if sink.evs[0].Reason != events.ReasonMetaFallback {
		t.Fatalf("reason = %v, want meta-fallback", sink.evs[0].Reason)
	}

	// No issue at all on a hit.
	if out := tour.Issue(Access{Block: addr.PageNum(0).Block(addr.OffsetOf(0, 1))}); out != nil {
		t.Fatalf("issued %v on a hit", out)
	}
}

func TestTournamentLeaderRegionReason(t *testing.T) {
	a := &fixed{name: "a", offs: []int{3}}
	b := &fixed{name: "b", offs: []int{9}}
	tour := NewTournament(TournamentConfig{}, a, b)
	sink := &captureSink{}
	tour.SetEventSink(sink)

	// Page 64 → region 1 → leader of component 1 (b): b issues even though
	// a, the priority component, also has a prediction.
	out := tour.Issue(missAt(64, 0))
	if len(out) != 1 || out[0].SegOffset() != 9 {
		t.Fatalf("Issue = %v, want the leader component's offset 9", out)
	}
	if tour.Origin() != "b" {
		t.Fatalf("Origin = %q, want b", tour.Origin())
	}
	if sink.evs[len(sink.evs)-1].Reason != events.ReasonLeaderRegion {
		t.Fatalf("reason = %v, want leader-region", sink.evs[len(sink.evs)-1].Reason)
	}
}

// TestTournamentShadowFeedback closes the learning loop: a component whose
// shadow predictions keep getting demanded earns region trust, flips the
// follower-region selection its way (reason meta-trust), and the reverse
// penalty path drains the trust again.
func TestTournamentShadowFeedback(t *testing.T) {
	a := &fixed{name: "a", mute: true}
	b := &fixed{name: "b", offs: []int{5}}
	tour := NewTournament(TournamentConfig{}, a, b)
	sink := &captureSink{}
	tour.SetEventSink(sink)

	page := followerPage(tour.Meta(), 2)
	region := tour.Meta().Region(page)

	// Each miss on offset 0 makes b shadow-predict offset 5; the following
	// miss ON offset 5 consumes the prediction and rewards b.
	for i := 0; i < 3; i++ {
		av := missAt(page, 0)
		tour.Train(av)
		tour.Issue(av)
		hit := missAt(page, 5)
		tour.Train(hit)
		tour.Issue(hit)
	}
	if got := tour.Meta().Trust(region, 1); got == 0 {
		t.Fatal("rewarded component earned no region trust")
	}
	sel, leader := tour.Meta().Select(region)
	if sel != 1 || leader {
		t.Fatalf("Select = (%d, %v), want component 1 by trust", sel, leader)
	}
	out := tour.Issue(missAt(page, 0))
	if len(out) != 1 || tour.Origin() != "b" {
		t.Fatalf("trusted component did not issue: out=%v origin=%q", out, tour.Origin())
	}
	if last := sink.evs[len(sink.evs)-1]; last.Reason != events.ReasonMetaTrust {
		t.Fatalf("reason = %v, want meta-trust", last.Reason)
	}

	// Both components trained on every access throughout.
	if a.train == 0 || a.train != b.train {
		t.Fatalf("training not parallel: a=%d b=%d", a.train, b.train)
	}
}

// TestTournamentShadowPenalty: predictions that age out of the shadow filter
// unconsumed drain trust. A tiny filter forces evictions quickly.
func TestTournamentShadowPenalty(t *testing.T) {
	b := &fixed{name: "b", offs: []int{5}}
	tour := NewTournament(TournamentConfig{FilterEntries: 1}, &fixed{name: "a", mute: true}, b)
	page := followerPage(tour.Meta(), 2)
	region := tour.Meta().Region(page)

	// Seed some trust first.
	for i := 0; i < 2; i++ {
		tour.Train(missAt(page, 0))
		tour.Issue(missAt(page, 0))
		tour.Train(missAt(page, 5))
		tour.Issue(missAt(page, 5))
	}
	trust := tour.Meta().Trust(region, 1)
	if trust == 0 {
		t.Fatal("setup failed: no trust earned")
	}
	// Misses on other pages map to the same single filter slot; b's never
	// demanded predictions for them keep evicting each other unconsumed.
	for i := 1; i <= 8; i++ {
		other := page + addr.PageNum(i)
		tour.Train(missAt(other, 0))
		tour.Issue(missAt(other, 0))
	}
	if after := tour.Meta().Trust(region, 1); after >= trust {
		// The penalties land in the evicted blocks' regions; with single-slot
		// filters the page+1.. regions alias around, so at minimum the global
		// score must have been debited.
		if tour.Meta().Score(1) >= 0 {
			t.Fatalf("no penalty recorded anywhere: trust %d -> %d, score %d",
				trust, after, tour.Meta().Score(1))
		}
	}
}

func TestTournamentResetClearsEverything(t *testing.T) {
	b := &fixed{name: "b", offs: []int{5}}
	tour := NewTournament(TournamentConfig{}, &fixed{name: "a", mute: true}, b)
	for i := 0; i < 4; i++ {
		tour.Train(missAt(0, 0))
		tour.Issue(missAt(0, 0))
		tour.Train(missAt(0, 5))
	}
	tour.Reset()
	if tour.Origin() != "" {
		t.Fatal("Origin survived Reset")
	}
	for name, n := range tour.IssuesByComponent() {
		if n != 0 {
			t.Fatalf("issue counter %q=%d survived Reset", name, n)
		}
	}
	if b.train != 0 {
		t.Fatal("component Reset not propagated")
	}
	for c := 0; c < 2; c++ {
		if tour.Meta().Score(c) != 0 {
			t.Fatal("meta scores survived Reset")
		}
	}
}

// TestTournamentPeekPure: Peek must not disturb any state — issuing after a
// Peek gives exactly what issuing without it would have.
func TestTournamentPeekPure(t *testing.T) {
	build := func() *Tournament {
		return NewTournament(TournamentConfig{},
			&fixed{name: "a", mute: true}, &fixed{name: "b", offs: []int{5, 6}})
	}
	a, b := build(), build()
	acc := missAt(0, 1)
	for i := 0; i < 3; i++ {
		b.Peek(acc, nil) // extra peeks on b only
	}
	ja, jb := a.Issue(acc), b.Issue(acc)
	if len(ja) != len(jb) {
		t.Fatalf("Peek disturbed state: %v vs %v", ja, jb)
	}
	if ia, ib := a.IssuesByComponent(), b.IssuesByComponent(); ia["b"] != ib["b"] {
		t.Fatalf("Peek counted as issue: %v vs %v", ia, ib)
	}
}

// TestTournamentSkipsPeekAfterEmptyIssue: a component the tournament already
// asked to issue on this trigger, and that returned nothing, is not peeked
// again — whether it was the selected component, a fall-through component
// tried before the winner, or one of many that all came back empty. The
// components the trigger never reached are still peeked for their shadow
// filters.
func TestTournamentSkipsPeekAfterEmptyIssue(t *testing.T) {
	comps := []*fixed{
		{name: "a", mute: true}, {name: "b", mute: true}, {name: "c", offs: []int{5}},
		{name: "d", mute: true}, {name: "e", offs: []int{9}},
	}
	mute := []*fixed{{name: "x", mute: true}, {name: "y", mute: true}}
	tours := []*Tournament{
		NewTournament(TournamentConfig{}, comps[0], comps[1], comps[2], comps[3], comps[4]),
		NewTournament(TournamentConfig{}, mute[0], mute[1]),
	}
	for _, tour := range tours {
		// Pages 0, 64, ... lead components 0, 1, ... in turn; the rest are
		// follower regions, where the meta-predictor picks.
		for p := addr.PageNum(0); p < 64*40; p += 16 {
			a := missAt(p, 1)
			tour.Train(a)
			tour.Issue(a)
		}
	}
	for _, c := range append(comps, mute...) {
		if c.redundant != 0 {
			t.Errorf("component %s: %d Peeks after its empty Issue on the same trigger", c.name, c.redundant)
		}
	}
	// d and e sit after the usual winner c in the priority order, so the
	// fall-through never asks them and the shadow pass must peek them.
	if comps[3].peeks == 0 || comps[4].peeks == 0 {
		t.Fatalf("untried components not peeked: d=%d e=%d", comps[3].peeks, comps[4].peeks)
	}
}

func TestTournamentPanicsWithoutComponents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTournament with no components did not panic")
		}
	}()
	NewTournament(TournamentConfig{})
}
