package prefetch

import (
	"repro/internal/addr"
	"repro/internal/events"
)

// TournamentConfig parameterises a Tournament. The zero value of any field
// selects its default.
type TournamentConfig struct {
	// Name labels the tournament instance in reports ("tournament" when
	// empty; the built-in registry uses "planaria-tournament").
	Name string
	// FilterEntries is the per-component shadow-filter size, rounded up
	// to a power of two (512). The filter remembers each component's
	// recent predictions so the meta-predictor can score them against
	// subsequent demand misses.
	FilterEntries int
}

// filterEntry is one shadow-filter slot: a recently predicted block and
// whether a demand access has consumed (validated) the prediction.
type filterEntry struct {
	block    addr.BlockNum
	valid    bool
	consumed bool
}

// shadowFilter is a direct-mapped table of one component's recent
// predictions. It exists purely to generate meta-predictor feedback; it
// holds no prefetched data and never touches the cache.
type shadowFilter struct {
	entries []filterEntry
	mask    uint64
}

func newShadowFilter(n int) shadowFilter {
	n = ceilPow2(n)
	return shadowFilter{entries: make([]filterEntry, n), mask: uint64(n - 1)}
}

// consume marks the prediction for b validated, reporting whether an
// unconsumed prediction was present.
func (f *shadowFilter) consume(b addr.BlockNum) bool {
	e := &f.entries[uint64(b)&f.mask]
	if e.valid && e.block == b && !e.consumed {
		e.consumed = true
		return true
	}
	return false
}

// insert records a prediction. When it overwrites a different, never
// consumed prediction, the evicted block is returned so the caller can
// penalise the component (a would-be wasted prefetch aged out unproven).
func (f *shadowFilter) insert(b addr.BlockNum) (evicted addr.BlockNum, penalty bool) {
	e := &f.entries[uint64(b)&f.mask]
	if e.valid && e.block == b {
		return 0, false // re-predicted: keep the consumed state as is
	}
	evicted, penalty = e.block, e.valid && !e.consumed
	*e = filterEntry{block: b, valid: true}
	return evicted, penalty
}

func (f *shadowFilter) reset() {
	for i := range f.entries {
		f.entries[i] = filterEntry{}
	}
}

// Tournament composes N prefetcher components under a learned selector: all
// components train on every demand access (the paper's decoupled "parallel
// training" generalised to N ways) and exactly one issues per trigger
// ("serial issuing"), chosen by the set-dueling Meta predictor per page
// region. A selected component with nothing to issue falls through the
// fixed priority order — component 0 first — so with the Planaria composite
// as component 0 the paper's SLP-priority rule is the standing fallback,
// and with no extra components the tournament is behaviourally identical to
// running the composite bare (pinned by TestTournamentTransparency).
//
// Feedback is self-contained: every component's would-be predictions enter
// its shadow filter on each trigger (Peek — no state disturbed), a later
// demand miss on a filtered block rewards the component in that region, and
// predictions that age out of the filter unproven penalise it. No engine
// callback is needed, so the Tournament plugs into the simulator like any
// other Prefetcher.
type Tournament struct {
	cfg     TournamentConfig
	comps   []Component
	meta    *Meta
	filters []shadowFilter

	// scratch is the reusable Peek buffer (shadow evaluation must not
	// allocate per trigger).
	scratch []addr.BlockNum

	// issuesBy counts triggers answered per component (the Figure 9
	// style breakdown input).
	issuesBy []uint64

	// lastOrigin is the origin name of the component that answered the
	// most recent Issue, for the engine's attribution path; components
	// that are themselves composites (Planaria) are deferred to, so SLP
	// vs TLP attribution survives inside a tournament.
	lastOrigin string

	// sink receives arbitration events; nil when tracing is disabled.
	sink events.Sink
}

// subOrigin is implemented by composite components (the Planaria
// coordinator) that attribute issues to an inner sub-prefetcher.
type subOrigin interface{ Origin() string }

// eventSinkSetter mirrors the engine-side discovery interface: components
// that emit their own decision events get the tournament's sink installed.
type eventSinkSetter interface{ SetEventSink(events.Sink) }

// NewTournament builds a tournament over the given components. Component 0
// is the priority/fallback component (the Planaria composite in the
// built-in registry). It panics when no components are given
// (construction-time programming error, per the package contract).
func NewTournament(cfg TournamentConfig, comps ...Component) *Tournament {
	if len(comps) == 0 {
		panic("prefetch: NewTournament needs at least one component")
	}
	if cfg.Name == "" {
		cfg.Name = "tournament"
	}
	if cfg.FilterEntries <= 0 {
		cfg.FilterEntries = 512
	}
	t := &Tournament{
		cfg:      cfg,
		comps:    comps,
		meta:     NewMeta(len(comps)),
		filters:  make([]shadowFilter, len(comps)),
		issuesBy: make([]uint64, len(comps)),
	}
	for i := range t.filters {
		t.filters[i] = newShadowFilter(cfg.FilterEntries)
	}
	return t
}

// Name implements Prefetcher.
func (t *Tournament) Name() string { return t.cfg.Name }

// Meta exposes the selector (tests, analysis, the debug endpoint).
func (t *Tournament) Meta() *Meta { return t.meta }

// Components returns the component list in priority order.
func (t *Tournament) Components() []Component { return t.comps }

// IssuesByComponent returns how many triggers each component answered,
// keyed by component name.
func (t *Tournament) IssuesByComponent() map[string]uint64 {
	out := make(map[string]uint64, len(t.comps))
	for i, c := range t.comps {
		out[c.Name()] = t.issuesBy[i]
	}
	return out
}

// Issues returns how many triggers component c (an index into Components)
// has answered. It allocates nothing, so the engine can publish the counts
// as live telemetry while a run is in flight.
func (t *Tournament) Issues(c int) uint64 { return t.issuesBy[c] }

// SetEventSink installs the decision-event sink on the tournament and every
// component that emits events (nil disables tracing).
func (t *Tournament) SetEventSink(s events.Sink) {
	t.sink = s
	for _, c := range t.comps {
		if es, ok := c.(eventSinkSetter); ok {
			es.SetEventSink(s)
		}
	}
}

// Origin reports the origin name of the component that answered the most
// recent Issue call ("" when none did). The engine uses it to attribute
// prefetch lifecycles per component in the event/attribution path.
func (t *Tournament) Origin() string { return t.lastOrigin }

// Reset implements Prefetcher.
func (t *Tournament) Reset() {
	for _, c := range t.comps {
		c.Reset()
	}
	t.meta.Reset()
	for i := range t.filters {
		t.filters[i].reset()
	}
	for i := range t.issuesBy {
		t.issuesBy[i] = 0
	}
	t.lastOrigin = ""
}

// Train implements Prefetcher: first settle shadow-filter feedback for this
// access (a miss on a predicted block rewards its predictor in this
// region), then train every component — full-pattern directed learning, N
// ways.
func (t *Tournament) Train(a Access) {
	region := t.meta.Region(a.Page())
	for c := range t.comps {
		if t.filters[c].consume(a.Block) && a.Miss {
			// The component predicted this block and the demand still
			// missed: issuing its prediction would have covered the
			// miss. (On a hit the prediction was redundant — consumed
			// without credit.)
			t.meta.Reward(region, c)
		}
	}
	for _, c := range t.comps {
		c.Train(a)
	}
}

// Issue implements Prefetcher: consult the meta-predictor for the trigger's
// region, let the chosen component issue, and fall through the fixed
// priority order when it has nothing. Every component's would-be
// predictions are then recorded in its shadow filter for scoring.
func (t *Tournament) Issue(a Access) []addr.BlockNum {
	return t.IssueTo(a, nil)
}

// issueComp lets component c issue into dst: through its BufferedIssuer
// fast path when implemented (all built-ins), otherwise by copying its
// Issue result (custom Components registered via the public API).
func issueComp(c Component, a Access, dst []addr.BlockNum) []addr.BlockNum {
	if bi, ok := c.(BufferedIssuer); ok {
		return bi.IssueTo(a, dst)
	}
	return append(dst, c.Issue(a)...)
}

// IssueTo implements BufferedIssuer; the engine's persistent per-channel
// buffer flows through the winning component, so a steady-state tournament
// trigger allocates nothing.
func (t *Tournament) IssueTo(a Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	region := t.meta.Region(a.Page())
	selected, leader := t.meta.Select(region)

	base := len(dst)
	winner := -1
	if dst = issueComp(t.comps[selected], a, dst); len(dst) > base {
		winner = selected
	} else {
		for c := range t.comps {
			if c == selected {
				continue
			}
			if dst = issueComp(t.comps[c], a, dst); len(dst) > base {
				winner = c
				break
			}
		}
	}
	out := dst[base:]

	// Shadow bookkeeping: what each component would have issued here.
	// The winner's actual candidates stand in for its Peek; components
	// already asked on this trigger (the losing selection, fall-throughs
	// before the winner) issued nothing, so by contract Peek is empty too.
	for c := range t.comps {
		var preds []addr.BlockNum
		switch {
		case c == winner:
			preds = out
		case c == selected || winner != selected && (winner < 0 || c < winner):
			continue
		default:
			preds = t.comps[c].Peek(a, t.scratch[:0])
			t.scratch = preds[:0]
		}
		for _, b := range preds {
			if evicted, penalty := t.filters[c].insert(b); penalty {
				t.meta.Penalize(t.meta.Region(evicted.Page()), c)
			}
		}
	}

	if winner < 0 {
		t.lastOrigin = ""
		return dst
	}
	t.issuesBy[winner]++
	t.lastOrigin = t.comps[winner].Name()
	if so, ok := t.comps[winner].(subOrigin); ok {
		if o := so.Origin(); o != "" {
			t.lastOrigin = o
		}
	}
	if t.sink != nil {
		reason := events.ReasonMetaFallback
		if winner == selected {
			if leader {
				reason = events.ReasonLeaderRegion
			} else {
				reason = events.ReasonMetaTrust
			}
		}
		t.sink.Emit(events.Event{
			Kind: events.KindArbitration, Cycle: a.Cycle, Block: a.Block,
			Origin: events.OriginFromName(t.lastOrigin), Reason: reason,
			N: uint16(len(out)),
		})
	}
	return dst
}

// Peek implements Component, so tournaments compose: the selected
// component's prediction, falling through the priority order, with no state
// disturbed anywhere.
func (t *Tournament) Peek(a Access, dst []addr.BlockNum) []addr.BlockNum {
	if !a.Miss {
		return dst
	}
	selected, _ := t.meta.Select(t.meta.Region(a.Page()))
	if out := t.comps[selected].Peek(a, dst); len(out) > len(dst) {
		return out
	}
	for c := range t.comps {
		if c == selected {
			continue
		}
		if out := t.comps[c].Peek(a, dst); len(out) > len(dst) {
			return out
		}
	}
	return dst
}

// StorageBits implements Prefetcher: the components' own budgets plus the
// tournament's metadata — the meta-predictor's counters and one shadow
// filter per component (block tag above the index bits, a valid bit and a
// consumed bit per slot).
func (t *Tournament) StorageBits() int {
	bits := t.meta.StorageBits()
	for _, c := range t.comps {
		bits += c.StorageBits()
	}
	// Block numbers carry a 36-bit page number plus the 6-bit in-page
	// offset; the filter index consumes log2(entries) of that.
	tag := 42 - log2i(len(t.filters[0].entries))
	if tag < 0 {
		tag = 0
	}
	bits += len(t.comps) * len(t.filters[0].entries) * (tag + 2)
	return bits
}

// Interface conformance checks.
var (
	_ Prefetcher     = (*Tournament)(nil)
	_ Component      = (*Tournament)(nil)
	_ Component      = (*Stride)(nil)
	_ Component      = (*NextLine)(nil)
	_ Component      = (*Markov)(nil)
	_ Component      = (*Accel)(nil)
	_ BufferedIssuer = (*Tournament)(nil)
	_ BufferedIssuer = (*Stride)(nil)
	_ BufferedIssuer = (*NextLine)(nil)
	_ BufferedIssuer = (*Markov)(nil)
	_ BufferedIssuer = (*Accel)(nil)
)
