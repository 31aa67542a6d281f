// Package prefetch defines the prefetcher abstraction shared by Planaria and
// the baseline prefetchers, and the tournament layer that arbitrates between
// multiple prefetcher components with a learned meta-predictor.
//
// # Components
//
// The central idea, taken from the paper's coordinator (Section 2), is that
// learning and issuing are separate operations: Train observes every demand
// access ("full-pattern directed" learning), while IssueTo is invoked
// selectively and appends the blocks to prefetch to a caller-owned buffer.
// Monolithic prefetchers simply do their bookkeeping in Train and their
// prediction in IssueTo. That contract is the Prefetcher interface;
// everything the engine drives — the Planaria composite, the BOP/SPP
// baselines, NextLine, Stride, and the tournament itself — implements it,
// and IssueTo is the only way the engine and the tournament ask a
// prefetcher to issue.
//
// Component extends Prefetcher with Peek, a side-effect-free prediction
// probe. Peek is what makes a prefetcher eligible for the tournament: the
// meta-predictor scores every component on every trigger by shadow
// evaluation (would this component have covered that miss?), which requires
// asking components what they would prefetch without letting the question
// disturb their learned state or statistics.
//
// The PC-free delta-family components defined here are:
//
//   - Stride (simple.go): per-page constant segment-offset stride with a
//     per-entry confirmation counter.
//   - Markov (markov.go): order-N delta-history prediction — a hashed
//     signature of the last N per-page deltas indexes a pattern table of
//     next-delta predictions with 2-bit confidence counters.
//   - Accel (accel.go): delta-delta "acceleration" — extrapolates
//     arithmetically accelerating per-page access sequences (delta grows or
//     shrinks by a constant each step).
//
// # Tournament and meta-predictor
//
// Tournament (tournament.go) composes N components. Every component trains
// on every access (the paper's decoupled "parallel training" generalised to
// N ways); exactly one issues per trigger ("serial issuing"). Which one is
// decided by Meta (meta.go), a per-page-region selector with set-dueling
// leader regions modelled on the DRRIP machinery in internal/cache: a fixed
// 1-in-32 slice of regions is permanently assigned to each component
// (forced exploration), follower regions go to the component with the best
// learned trust counters, and ties fall back to the fixed priority order —
// component 0 first, which preserves the paper's SLP-priority rule when the
// composite is component 0. Feedback comes from per-component shadow
// filters: a demand miss on a block a component recently predicted rewards
// it in that region; overwriting a never-consumed prediction penalises it.
//
// With no extra components registered the tournament degenerates to "always
// component 0" and the engine's reports are bit-identical to running the
// component bare (pinned by TestTournamentTransparency in internal/sim).
//
// Algorithms, table geometries, StorageBits budgets and tuning knobs for
// every component are documented in docs/PREFETCHERS.md.
package prefetch
