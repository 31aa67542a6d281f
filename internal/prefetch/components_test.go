package prefetch

import (
	"testing"

	"repro/internal/addr"
)

// TestMarkovLearnsAlternatingDeltas: the order-2 component captures the
// +1,+3 repeating walk that a constant-stride predictor cannot represent.
func TestMarkovLearnsAlternatingDeltas(t *testing.T) {
	m := NewMarkov(DefaultMarkovConfig())
	page := addr.PageNum(42)
	// One pass over 0,1,4,5,8,9,12,13 trains both transitions
	// ([+1,+3] → +1 and [+3,+1] → +3) to confidence ≥ 2.
	for _, off := range []int{0, 1, 4, 5, 8, 9, 12, 13} {
		m.Train(Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true})
	}
	// The pattern table is keyed by delta history alone, so the learning
	// transfers to a fresh page: priming page 43 up to offset 5 leaves the
	// history at [+3,+1] and the chain predicts +3,+1,+3,+1 → 8, 9, 12, 13.
	// (A fresh page matters: re-entering a stale tracker would first emit a
	// wrap-around delta that decays the learned transitions.)
	page2 := addr.PageNum(43)
	var last Access
	for _, off := range []int{0, 1, 4, 5} {
		last = Access{Block: page2.Block(addr.OffsetOf(0, off)), Miss: true}
		m.Train(last)
	}
	got := m.Issue(last)
	want := []int{8, 9, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("Issue = %v, want offsets %v", got, want)
	}
	for i, b := range got {
		if b.SegOffset() != want[i] || b.Page() != page2 || b.Channel() != 0 {
			t.Fatalf("target %d = %v (off %d), want offset %d on page %d channel 0",
				i, b, b.SegOffset(), want[i], page2)
		}
	}
	if m.Issues() != 1 {
		t.Fatalf("Issues = %d, want 1", m.Issues())
	}
	// No issue on hits; Peek equals Issue and repeated Peeks are stable.
	if m.Issue(Access{Block: last.Block}) != nil {
		t.Fatal("issued on a hit")
	}
	p1 := m.Peek(last, nil)
	p2 := m.Peek(last, nil)
	if len(p1) != len(got) || len(p2) != len(got) {
		t.Fatalf("Peek unstable: %v then %v, Issue was %v", p1, p2, got)
	}
}

func TestMarkovNoIssueUnprimed(t *testing.T) {
	m := NewMarkov(DefaultMarkovConfig())
	page := addr.PageNum(7)
	a := Access{Block: page.Block(addr.OffsetOf(0, 3)), Miss: true}
	m.Train(a)
	if got := m.Issue(a); got != nil {
		t.Fatalf("issued %v before the history primed", got)
	}
}

func TestMarkovReset(t *testing.T) {
	m := NewMarkov(DefaultMarkovConfig())
	for _, off := range []int{0, 1, 4, 5, 8, 9, 12, 13} {
		m.Train(Access{Block: addr.PageNum(42).Block(addr.OffsetOf(0, off)), Miss: true})
	}
	var last Access
	for _, off := range []int{0, 1, 4, 5} {
		last = Access{Block: addr.PageNum(43).Block(addr.OffsetOf(0, off)), Miss: true}
		m.Train(last)
	}
	if m.Issue(last) == nil {
		t.Fatal("setup failed: nothing learned")
	}
	m.Reset()
	if got := m.Issue(last); got != nil {
		t.Fatalf("issued %v after Reset", got)
	}
	if m.Issues() != 0 {
		t.Fatal("issue counter survived Reset")
	}
}

// TestAccelLearnsTriangularWalk: the delta-delta component extrapolates the
// growing-stride sweep 0,1,3,6,10 → 15.
func TestAccelLearnsTriangularWalk(t *testing.T) {
	p := NewAccel(DefaultAccelConfig())
	page := addr.PageNum(9)
	var last Access
	for _, off := range []int{0, 1, 3, 6, 10} {
		last = Access{Block: page.Block(addr.OffsetOf(2, off)), Miss: true}
		p.Train(last)
	}
	got := p.Issue(last)
	if len(got) != 1 || got[0].SegOffset() != 15 || got[0].Channel() != 2 {
		t.Fatalf("Issue = %v, want offset 15 on channel 2", got)
	}
	if p.Issues() != 1 {
		t.Fatalf("Issues = %d, want 1", p.Issues())
	}
}

// TestAccelConstantStride: with acceleration 0 the component degenerates to
// a confirmed stride predictor.
func TestAccelConstantStride(t *testing.T) {
	p := NewAccel(DefaultAccelConfig())
	page := addr.PageNum(11)
	var last Access
	for _, off := range []int{0, 2, 4, 6} {
		last = Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(last)
	}
	got := p.Issue(last)
	want := []int{8, 10, 12}
	if len(got) != len(want) {
		t.Fatalf("Issue = %v, want offsets %v", got, want)
	}
	for i, b := range got {
		if b.SegOffset() != want[i] {
			t.Fatalf("target %d offset = %d, want %d", i, b.SegOffset(), want[i])
		}
	}
}

func TestAccelNoIssueWithoutConfidence(t *testing.T) {
	p := NewAccel(DefaultAccelConfig())
	page := addr.PageNum(5)
	for _, off := range []int{0, 1, 5, 2, 11} {
		a := Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(a)
		if got := p.Issue(a); got != nil {
			t.Fatalf("issued %v on an irregular walk", got)
		}
	}
}

func TestAccelReset(t *testing.T) {
	p := NewAccel(DefaultAccelConfig())
	page := addr.PageNum(9)
	var last Access
	for _, off := range []int{0, 1, 3, 6, 10} {
		last = Access{Block: page.Block(addr.OffsetOf(0, off)), Miss: true}
		p.Train(last)
	}
	p.Reset()
	if got := p.Issue(last); got != nil {
		t.Fatalf("issued %v after Reset", got)
	}
}

// TestMetaSetDueling walks the selector contract: leader regions are fixed
// per component, follower regions follow trust, cold rows follow the global
// score, and everything ties to component 0.
func TestMetaSetDueling(t *testing.T) {
	m := NewMeta(3)
	// Regions 0..2 lead components 0..2; region 32 leads component 0 again.
	for r, want := range map[int]int{0: 0, 1: 1, 2: 2, 32: 0, 33: 1} {
		sel, leader := m.Select(r)
		if sel != want || !leader {
			t.Fatalf("Select(%d) = (%d, %v), want leader %d", r, sel, leader, want)
		}
	}
	// Follower region, all cold: ties resolve to component 0.
	const follower = 40
	if sel, leader := m.Select(follower); sel != 0 || leader {
		t.Fatalf("cold follower Select = (%d, %v), want (0, false)", sel, leader)
	}
	// Regional trust dominates.
	m.Reward(follower, 2)
	if sel, _ := m.Select(follower); sel != 2 {
		t.Fatalf("Select after reward = %d, want 2", sel)
	}
	// Draining the trust falls back to the global score, which the reward
	// above also bumped… so debit it below zero first.
	m.Penalize(follower, 2)
	m.Penalize(follower, 2) // trust floors at 0; psel keeps going down
	if m.Trust(follower, 2) != 0 {
		t.Fatalf("trust did not floor at 0: %d", m.Trust(follower, 2))
	}
	if m.Score(2) != -1 {
		t.Fatalf("Score(2) = %d, want -1 after one net penalty", m.Score(2))
	}
	m.Reward(100, 1) // global credit for component 1 via some other region
	if sel, _ := m.Select(follower); sel != 1 {
		t.Fatalf("cold-row Select = %d, want 1 by global score", sel)
	}
}

func TestMetaSaturation(t *testing.T) {
	m := NewMeta(2)
	const region = 40
	for i := 0; i < metaPselMax+10; i++ {
		m.Reward(region, 1)
	}
	if m.Trust(region, 1) != metaTrustMax {
		t.Fatalf("trust = %d, want saturation at %d", m.Trust(region, 1), metaTrustMax)
	}
	if m.Score(1) != metaPselMax {
		t.Fatalf("score = %d, want clamp at %d", m.Score(1), metaPselMax)
	}
	for i := 0; i < 2*metaPselMax+10; i++ {
		m.Penalize(region, 1)
	}
	if m.Trust(region, 1) != 0 || m.Score(1) != -metaPselMax {
		t.Fatalf("after penalties: trust %d score %d, want 0 and %d", m.Trust(region, 1), m.Score(1), -metaPselMax)
	}
}

func TestMetaLeaderModClampedToComponents(t *testing.T) {
	// One component more than the leader cycle's length would leave the
	// last component leaderless; the constructor widens the cycle.
	const n = metaLeaderMod + 1
	m := NewMeta(n)
	seen := map[int]bool{}
	for r := 0; r < metaRegions; r++ {
		if sel, leader := m.Select(r); leader {
			seen[sel] = true
		}
	}
	for c := 0; c < n; c++ {
		if !seen[c] {
			t.Fatalf("component %d has no leader region", c)
		}
	}
}
