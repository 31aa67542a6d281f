// Package events is the decision-level tracing subsystem of the
// reproduction: a zero-cost-when-disabled, per-channel structured event
// stream that records the full prefetch lifecycle — demand access, SLP
// learning milestones, TLP neighbour matches, the coordinator's arbitration
// outcome, and issue → fill → used / late-hit / evicted-unused — so the
// paper's central claim ("parallel learning, serial issuing" arbitration is
// what makes the composite win) can be inspected decision by decision
// instead of only through end-of-run aggregates.
//
// Design constraints (docs/TRACING.md):
//
//   - Disabled tracing costs one nil check per emission site and zero
//     allocations; enabling it must stay within a ~10% req/s budget
//     (guarded by BenchmarkEngineStepTraced and cmd/benchguard).
//   - Each channel owns one Sink, driven by exactly one goroutine, so the
//     hot path takes no locks. Events land in fixed-capacity per-channel
//     ring buffers (drop-oldest, with a dropped counter) so bounded memory
//     is preserved under arbitrarily long streamed runs.
//   - The attribution table is updated with channel-local atomics so a
//     live consumer (the -live-dir views) can snapshot it mid-run
//     without stopping the workers.
//
// Consumers: WriteChromeTrace exports the rings as Chrome trace-event JSON
// (loadable in Perfetto / chrome://tracing), and Recorder.Attrib produces
// the per-prefetcher / per-page-bucket attribution table embedded in obs
// run artifacts and written to the live attrib.json view.
package events

import (
	"fmt"

	"repro/internal/addr"
)

// Kind identifies what a recorded Event describes.
type Kind uint8

// Event kinds, in rough lifecycle order.
const (
	// KindDemand is one demand access as the engine saw it (Flags carry
	// write/hit/late).
	KindDemand Kind = iota
	// KindArbitration is the coordinator's issuing decision for one
	// trigger: Origin is the sub-prefetcher that issued, Reason says why
	// the other one was suppressed, N counts the candidate blocks.
	KindArbitration
	// KindSLPPromote marks an SLP filter-table entry reaching the
	// promotion threshold and moving into the accumulation table
	// (learning milestone; Aux is the page number).
	KindSLPPromote
	// KindSLPSnapshot marks an accumulation-table entry retiring into
	// the pattern history table as a complete footprint snapshot (Aux is
	// the page number, N the snapshot's bit count).
	KindSLPSnapshot
	// KindTLPNeighbor marks a successful neighbour match: TLP found a
	// similar flagged neighbour to transfer from (Aux is the neighbour
	// page, N the number of transferred footprint bits).
	KindTLPNeighbor
	// KindIssue is one prefetch entering the DRAM queue (Aux is the
	// cycle the fill will be usable).
	KindIssue
	// KindFill is a prefetched block landing in the system cache.
	// FlagLate marks a fill whose demand already waited on it (the
	// usefulness credit was given as a late hit).
	KindFill
	// KindUsed is the first demand hit on a prefetched line — the
	// "useful prefetch" terminal state.
	KindUsed
	// KindLateHit is a demand read served by a prefetch still in flight
	// (Aux is the cycle the fill lands).
	KindLateHit
	// KindEvictUnused is a prefetched line evicted before any demand use
	// — the "wasted prefetch" terminal state.
	KindEvictUnused

	numKinds
)

var kindNames = [numKinds]string{
	"demand", "arbitration", "slp-promote", "slp-snapshot", "tlp-neighbor",
	"issue", "fill", "used", "late-hit", "evict-unused",
}

// String returns the kind mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Origin identifies which sub-prefetcher an event is attributed to.
type Origin uint8

// Origins. OriginNone covers untagged prefetches (every prefetch of a
// non-composite prefetcher such as BOP or SPP); OriginStride, OriginMarkov,
// OriginAccel and OriginNextLine are the built-in tournament components
// (docs/PREFETCHERS.md); OriginOther covers tagged origins that are none of
// the above (custom composites and custom tournament components). The
// engine counts, stores and reports prefetch origins in this enum alone.
const (
	OriginNone Origin = iota
	OriginSLP
	OriginTLP
	OriginStride
	OriginMarkov
	OriginAccel
	OriginNextLine
	OriginOther

	// NumOrigins is the number of origins, for origin-indexed arrays.
	NumOrigins = iota
)

var originNames = [NumOrigins]string{"untagged", "slp", "tlp", "stride", "markov", "accel", "nextline", "other"}

// String returns the origin mnemonic.
func (o Origin) String() string {
	if int(o) < len(originNames) {
		return originNames[o]
	}
	return fmt.Sprintf("origin(%d)", uint8(o))
}

// OriginFromName maps a prefetcher-reported origin name ("slp", "tlp", …)
// to the enum; the empty name maps to OriginNone.
func OriginFromName(name string) Origin {
	switch name {
	case "":
		return OriginNone
	case "slp":
		return OriginSLP
	case "tlp":
		return OriginTLP
	case "stride":
		return OriginStride
	case "markov":
		return OriginMarkov
	case "accel":
		return OriginAccel
	case "nextline":
		return OriginNextLine
	}
	return OriginOther
}

// Reason explains an arbitration outcome: why the sub-prefetcher that did
// NOT issue was suppressed for this trigger.
type Reason uint8

// Suppression reasons.
const (
	ReasonNone Reason = iota
	// ReasonSLPPriority: TLP was suppressed because SLP issued — the
	// paper's serial-issuing rule gives SLP priority.
	ReasonSLPPriority
	// ReasonNoMetadata: SLP had no usable pattern for the page (or the
	// pattern contributed nothing beyond the trigger), so the trigger
	// fell through to TLP.
	ReasonNoMetadata
	// ReasonDisabled: the suppressed sub-prefetcher is disabled by
	// configuration (the Figure 9 breakdown runs).
	ReasonDisabled
	// ReasonLeaderRegion: the tournament issued from the component that
	// permanently owns this page region's leader set — the set-dueling
	// exploration path, taken regardless of learned trust.
	ReasonLeaderRegion
	// ReasonMetaTrust: the tournament's meta-predictor selected the
	// issuing component because its per-region (or global) trust counters
	// beat every other component's.
	ReasonMetaTrust
	// ReasonMetaFallback: the meta-predictor's choice had nothing to
	// issue, so the trigger fell through the fixed priority order (the
	// composite first — the paper's SLP-priority rule as the fallback).
	ReasonMetaFallback

	numReasons
)

var reasonNames = [numReasons]string{
	"none", "slp-priority", "no-metadata", "disabled",
	"leader-region", "meta-trust", "meta-fallback",
}

// String returns the reason mnemonic.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Flags is a per-event bitset.
type Flags uint8

// Flag bits.
const (
	FlagWrite Flags = 1 << iota // demand access was a write
	FlagHit                     // demand access hit in the SC
	FlagLate                    // demand was served by an in-flight prefetch / fill arrived pre-used
)

// Event is one structured trace event. The struct is fixed-size and
// value-copied into the ring buffer, so emission allocates nothing.
type Event struct {
	Cycle uint64        // trace clock when the event happened
	Block addr.BlockNum // subject block, zero when not applicable
	// Aux is kind-specific: the page number for SLP learning events, the
	// neighbour page for KindTLPNeighbor, the fill-ready cycle for
	// KindIssue and KindLateHit.
	Aux    uint64
	N      uint16 // kind-specific small count (candidates, footprint bits)
	Kind   Kind
	Origin Origin
	Reason Reason
	Flags  Flags
}

// Sink receives decision events. The engine installs one per channel;
// implementations must be cheap, as Emit sits on the simulation hot path,
// and need not be safe for concurrent Emit calls (each channel is driven by
// one goroutine).
type Sink interface {
	Emit(Event)
}

// Config parameterises a Recorder (see sim.Config.Events).
type Config struct {
	// RingSize is the per-channel ring-buffer capacity in events. Zero
	// keeps attribution and live counters but records no event ring —
	// the cheap mode behind -live-dir / -attrib without -trace-out.
	RingSize int
}

// DefaultRingSize is the per-channel ring capacity used by the CLIs when
// event export is requested: 64k events ≈ 3 MB per channel.
const DefaultRingSize = 1 << 16
