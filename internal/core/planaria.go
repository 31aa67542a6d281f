package core

import (
	"fmt"
	mbits "math/bits"

	"repro/internal/addr"
	"repro/internal/bitmap"
	"repro/internal/events"
	"repro/internal/prefetch"
)

// CoordMode selects the coordination strategy. Decoupled is Planaria's
// contribution; the other two model the prior-art coordinator families the
// paper compares against in Section 7 and back the abl-coord experiment.
type CoordMode int

// Coordination modes.
const (
	// Decoupled is "parallel training and serial issuing": every demand
	// access trains both sub-prefetchers (full-pattern directed
	// learning), while only one sub-prefetcher — SLP preferentially —
	// issues for a given trigger.
	Decoupled CoordMode = iota
	// Serial models a TPC-style serial coordinator with monolithic
	// sub-prefetchers: only the selected sub-prefetcher both learns and
	// issues, so the idle one goes blind.
	Serial
	// Parallel models an ISB-style parallel coordinator: both
	// sub-prefetchers learn and both issue; their requests are unioned.
	Parallel
)

// String returns the mode mnemonic.
func (m CoordMode) String() string {
	switch m {
	case Decoupled:
		return "decoupled"
	case Serial:
		return "serial"
	case Parallel:
		return "parallel"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config bundles the sub-prefetcher configurations and the coordinator mode.
type Config struct {
	SLP  SLPConfig
	TLP  TLPConfig
	Mode CoordMode
	// DisableSLP / DisableTLP turn a sub-prefetcher off entirely,
	// enabling the Figure 9 breakdown runs.
	DisableSLP bool
	DisableTLP bool
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{SLP: DefaultSLPConfig(), TLP: DefaultTLPConfig(), Mode: Decoupled}
}

// Planaria is the composite prefetcher for one channel: SLP + TLP under the
// coordinator (Figure 1).
type Planaria struct {
	cfg Config
	slp *SLP
	tlp *TLP

	lastOrigin string // sub-prefetcher that answered the most recent Issue

	// sink receives decision events (arbitration outcomes here, learning
	// milestones from the sub-prefetchers); nil when tracing is disabled,
	// which keeps the hot path at one nil check per decision.
	sink events.Sink
}

// New builds a Planaria instance.
func New(cfg Config) *Planaria {
	return &Planaria{cfg: cfg, slp: NewSLP(cfg.SLP), tlp: NewTLP(cfg.TLP)}
}

// Name implements prefetch.Prefetcher.
func (p *Planaria) Name() string {
	switch {
	case p.cfg.DisableTLP && p.cfg.DisableSLP:
		return "planaria-off"
	case p.cfg.DisableTLP:
		return "planaria-slp"
	case p.cfg.DisableSLP:
		return "planaria-tlp"
	case p.cfg.Mode != Decoupled:
		return "planaria-" + p.cfg.Mode.String()
	}
	return "planaria"
}

// Reset implements prefetch.Prefetcher.
func (p *Planaria) Reset() {
	p.slp.Reset()
	p.tlp.Reset()
	p.lastOrigin = ""
}

// SetEventSink installs the decision-event sink on the coordinator and both
// sub-prefetchers (nil disables tracing). The engine calls it once per
// channel when event tracing is enabled; see docs/TRACING.md.
func (p *Planaria) SetEventSink(s events.Sink) {
	p.sink = s
	p.slp.SetEventSink(s)
	p.tlp.SetEventSink(s)
}

// SLP exposes the intra-page sub-prefetcher (for tests and analysis).
func (p *Planaria) SLP() *SLP { return p.slp }

// TLP exposes the inter-page sub-prefetcher (for tests and analysis).
func (p *Planaria) TLP() *TLP { return p.tlp }

// Train implements prefetch.Prefetcher — the learning phase.
//
// In Decoupled and Parallel modes both sub-prefetchers observe every demand
// access. In Serial (monolithic) mode only the sub-prefetcher currently
// selected for this page learns, reproducing the blindness of prior serial
// coordinators.
func (p *Planaria) Train(a prefetch.Access) {
	switch p.cfg.Mode {
	case Serial:
		if p.selectSLP(a) {
			if !p.cfg.DisableSLP {
				p.slp.Train(a)
			}
		} else if !p.cfg.DisableTLP {
			p.tlp.Train(a)
		}
	default:
		if !p.cfg.DisableSLP {
			p.slp.Train(a)
		}
		if !p.cfg.DisableTLP {
			p.tlp.Train(a)
		}
	}
}

// selectSLP applies the paper's selection rule: SLP issues preferentially;
// TLP is enabled only when SLP has no history for the page.
func (p *Planaria) selectSLP(a prefetch.Access) bool {
	if p.cfg.DisableSLP {
		return false
	}
	if p.cfg.DisableTLP {
		return true
	}
	return p.slp.HasMetadata(a.Page())
}

// Issue implements prefetch.Prefetcher: IssueTo into a fresh slice.
func (p *Planaria) Issue(a prefetch.Access) []addr.BlockNum {
	return p.IssueTo(a, nil)
}

// plan is the coordinator's issuing decision for the miss a, read from the
// sub-prefetchers' metadata without touching any state: the offsets SLP
// would issue, the offsets TLP would transfer and the neighbour it would
// transfer them from. Decoupled and Serial issue serially — TLP is asked
// only when SLP has nothing for the page — so at most one mask is non-zero;
// Parallel asks both. A disabled sub-prefetcher contributes nothing.
// IssueTo and Peek both expand this one plan.
func (p *Planaria) plan(a prefetch.Access) (slp, tlp bitmap.Seg16, neighbor addr.PageNum) {
	if !p.cfg.DisableSLP {
		if slp = p.slp.offer(a); slp != 0 && p.cfg.Mode != Parallel {
			return slp, 0, 0
		}
	}
	if !p.cfg.DisableTLP {
		neighbor, tlp, _ = p.tlp.BestNeighbor(a.Page())
	}
	return slp, tlp, neighbor
}

// expand appends the plan's blocks to dst: SLP's first, then the TLP
// transfers SLP did not already name (both lie in the trigger's segment).
func expand(dst []addr.BlockNum, a prefetch.Access, slp, tlp bitmap.Seg16) []addr.BlockNum {
	return appendSegment(appendSegment(dst, a.Block, slp), a.Block, tlp&^slp)
}

// IssueTo implements prefetch.Prefetcher — the issuing phase: expand the
// plan into dst, then count the issue on each sub-prefetcher that answered,
// record the origin and emit the arbitration event. The engine threads one
// persistent buffer per channel through here, so issuing allocates nothing.
func (p *Planaria) IssueTo(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	slp, tlp, neighbor := p.plan(a)
	base := len(dst)
	dst = expand(dst, a, slp, tlp)
	if slp != 0 {
		p.slp.issues++
	}
	if tlp != 0 {
		p.tlp.issued(a, neighbor, tlp)
	}
	if p.cfg.Mode == Parallel {
		return dst // a union has no single origin and no arbitration
	}
	var origin events.Origin
	var reason events.Reason
	switch {
	case slp != 0:
		// SLP won the trigger: TLP was suppressed by the serial-issuing
		// priority rule (or is simply off).
		p.lastOrigin, origin, reason = "slp", events.OriginSLP, events.ReasonSLPPriority
		if p.cfg.DisableTLP {
			reason = events.ReasonDisabled
		}
	case tlp != 0:
		// The trigger fell through to TLP: SLP had no usable pattern for
		// the page (or is disabled).
		p.lastOrigin, origin, reason = "tlp", events.OriginTLP, events.ReasonNoMetadata
		if p.cfg.DisableSLP {
			reason = events.ReasonDisabled
		}
	default:
		p.lastOrigin = ""
		return dst
	}
	if p.sink != nil {
		p.sink.Emit(events.Event{
			Kind: events.KindArbitration, Cycle: a.Cycle, Block: a.Block,
			Origin: origin, Reason: reason, N: uint16(len(dst) - base),
		})
	}
	return dst
}

// Peek implements prefetch.Component: the blocks IssueTo would return for
// a, expanded from the same plan with no state, counter or event touched.
// The tournament calls it on every trigger for shadow evaluation.
func (p *Planaria) Peek(a prefetch.Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	slp, tlp, _ := p.plan(a)
	return expand(dst, a, slp, tlp)
}

// Origin reports which sub-prefetcher answered the most recent Issue call
// ("slp", "tlp", or "" for none/union). The engine uses it to attribute
// useful prefetches per sub-prefetcher (the Figure 9 in-system breakdown).
func (p *Planaria) Origin() string {
	if p.cfg.Mode == Parallel {
		return "" // union issues have no single origin
	}
	return p.lastOrigin
}

// IssueShare returns how many triggers each sub-prefetcher answered — the
// Figure 9 breakdown input.
func (p *Planaria) IssueShare() (slp, tlp uint64) { return p.slp.issues, p.tlp.issues }

// StorageBits implements prefetch.Prefetcher.
func (p *Planaria) StorageBits() int {
	return p.slp.StorageBits() + p.tlp.StorageBits()
}

// appendSegment appends to dst, in ascending offset order, the blocks of
// the trigger's channel segment whose offsets are set in m.
func appendSegment(dst []addr.BlockNum, trigger addr.BlockNum, m bitmap.Seg16) []addr.BlockNum {
	p, ch := trigger.Page(), trigger.Channel()
	for v := uint16(m); v != 0; v &= v - 1 {
		dst = append(dst, p.Block(addr.OffsetOf(ch, mbits.TrailingZeros16(v))))
	}
	return dst
}

// Interface conformance checks.
var (
	_ prefetch.Component  = (*Planaria)(nil)
	_ prefetch.Prefetcher = (*SLP)(nil)
	_ prefetch.Prefetcher = (*TLP)(nil)
)
