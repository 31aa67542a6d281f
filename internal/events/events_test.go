package events

import (
	"testing"

	"repro/internal/addr"
)

func TestRingOverflowDropsOldest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.push(Event{Cycle: uint64(i)})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len/cap = %d/%d, want 4/4", r.Len(), r.Cap())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events returned %d events", len(evs))
	}
	// Oldest-first: cycles 2,3,4,5 survive.
	for i, ev := range evs {
		if ev.Cycle != uint64(i+2) {
			t.Fatalf("event %d has cycle %d, want %d (oldest dropped first)", i, ev.Cycle, i+2)
		}
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 3; i++ {
		r.push(Event{Cycle: uint64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 3/0", r.Len(), r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 3 || evs[0].Cycle != 0 || evs[2].Cycle != 2 {
		t.Fatalf("partial ring events %v", evs)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if r.Cap() != 1 {
		t.Fatalf("cap = %d, want clamp to 1", r.Cap())
	}
	r.push(Event{Cycle: 1})
	r.push(Event{Cycle: 2})
	if r.Len() != 1 || r.Dropped() != 1 || r.Events()[0].Cycle != 2 {
		t.Fatalf("1-slot ring: len=%d dropped=%d evs=%v", r.Len(), r.Dropped(), r.Events())
	}
}

func TestRecorderAttribLifecycle(t *testing.T) {
	r := NewRecorder(2, 0) // attribution-only: no rings
	if r.HasRings() {
		t.Fatal("ringSize 0 built rings")
	}
	b := addr.PageNum(0x40).Block(0) // page 0x40 → bucket (0x40>>6)&7 = 1
	s0, s1 := r.Channel(0), r.Channel(1)
	s0.Emit(Event{Kind: KindIssue, Block: b, Origin: OriginSLP})
	s0.Emit(Event{Kind: KindFill, Block: b, Origin: OriginSLP})
	s0.Emit(Event{Kind: KindUsed, Block: b, Origin: OriginSLP})
	s1.Emit(Event{Kind: KindIssue, Block: b, Origin: OriginTLP})
	s1.Emit(Event{Kind: KindFill, Block: b, Origin: OriginTLP, Flags: FlagLate})
	s1.Emit(Event{Kind: KindEvictUnused, Block: b, Origin: OriginTLP})
	s1.Emit(Event{Kind: KindArbitration, Origin: OriginTLP, Reason: ReasonNoMetadata})
	s0.Emit(Event{Kind: KindSLPPromote})
	s0.Emit(Event{Kind: KindSLPSnapshot})
	s1.Emit(Event{Kind: KindTLPNeighbor})
	s0.Emit(Event{Kind: KindDemand})

	snap := r.Attrib()
	if snap.Demand != 1 || snap.SLPPromotions != 1 || snap.SLPSnapshots != 1 || snap.TLPNeighborMatches != 1 {
		t.Fatalf("learning counters: %+v", snap)
	}
	if snap.Suppression["no-metadata"] != 1 {
		t.Fatalf("suppression = %v", snap.Suppression)
	}
	if len(snap.Origins) != 2 {
		t.Fatalf("origins = %+v, want slp and tlp rows", snap.Origins)
	}
	slp, tlp := snap.Origins[0], snap.Origins[1]
	if slp.Origin != "slp" || slp.Issued != 1 || slp.Filled != 1 || slp.Used != 1 || slp.Late != 0 {
		t.Fatalf("slp row %+v", slp)
	}
	if tlp.Origin != "tlp" || tlp.Issued != 1 || tlp.Filled != 1 || tlp.Late != 1 || tlp.EvictedUnused != 1 {
		t.Fatalf("tlp row %+v", tlp)
	}
	// Per-bucket breakdown: page 0x40 lands in bucket 1.
	if len(slp.Buckets) != 1 || slp.Buckets[0].Bucket != 1 || slp.Buckets[0].Used != 1 {
		t.Fatalf("slp buckets %+v", slp.Buckets)
	}
	if got := snap.UsefulByOrigin(); got["slp"] != 1 || got["tlp"] != 1 {
		t.Fatalf("UsefulByOrigin = %v (used+late per origin)", got)
	}

	// ResetAttrib zeroes everything.
	r.ResetAttrib()
	snap = r.Attrib()
	if len(snap.Origins) != 0 || snap.Demand != 0 || len(snap.Suppression) != 0 {
		t.Fatalf("attribution survived reset: %+v", snap)
	}
}

func TestRecorderDroppedSumsChannels(t *testing.T) {
	r := NewRecorder(2, 2)
	if !r.HasRings() {
		t.Fatal("rings missing")
	}
	for i := 0; i < 5; i++ { // 3 drops on channel 0
		r.Channel(0).Emit(Event{Cycle: uint64(i), Kind: KindDemand})
	}
	for i := 0; i < 3; i++ { // 1 drop on channel 1
		r.Channel(1).Emit(Event{Cycle: uint64(i), Kind: KindDemand})
	}
	if r.Dropped() != 4 {
		t.Fatalf("recorder dropped = %d, want 4", r.Dropped())
	}
	if snap := r.Attrib(); snap.DroppedEvents != 4 {
		t.Fatalf("snapshot dropped = %d, want 4", snap.DroppedEvents)
	}
	// Drops affect the ring only, never the attribution counters.
	if snap := r.Attrib(); snap.Demand != 8 {
		t.Fatalf("demand = %d, want all 8 events attributed", snap.Demand)
	}
}

func TestEnumStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindDemand: "demand", KindArbitration: "arbitration",
		KindSLPPromote: "slp-promote", KindSLPSnapshot: "slp-snapshot",
		KindTLPNeighbor: "tlp-neighbor", KindIssue: "issue", KindFill: "fill",
		KindUsed: "used", KindLateHit: "late-hit", KindEvictUnused: "evict-unused",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k, want)
		}
	}
	if Kind(200).String() != "kind(200)" {
		t.Errorf("out-of-range kind = %q", Kind(200))
	}
	if OriginSLP.String() != "slp" || OriginNone.String() != "untagged" || Origin(99).String() != "origin(99)" {
		t.Error("origin strings")
	}
	if ReasonSLPPriority.String() != "slp-priority" || ReasonNoMetadata.String() != "no-metadata" ||
		ReasonDisabled.String() != "disabled" || Reason(99).String() != "reason(99)" {
		t.Error("reason strings")
	}
}

func TestOriginFromName(t *testing.T) {
	cases := map[string]Origin{
		"": OriginNone, "slp": OriginSLP, "tlp": OriginTLP, "custom": OriginOther,
	}
	// Every tagged origin's name maps back to it, so a name the engine
	// reports is the name the attribution table and the Chrome trace show.
	for o := OriginSLP; o < NumOrigins; o++ {
		cases[o.String()] = o
	}
	for name, want := range cases {
		if got := OriginFromName(name); got != want {
			t.Errorf("OriginFromName(%q) = %v, want %v", name, got, want)
		}
	}
}
