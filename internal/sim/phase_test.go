package sim

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestPlanariaSurvivesPhaseChange stresses the paper's Section 3.2 design
// bet: using only the page number as the snapshot signature is safe because
// footprints change little across phases. Here we build an abrupt
// worst-case phase change — a second segment generated with a different
// seed, so every page's footprint is replaced — and require that Planaria
// (a) still improves AMAT over no prefetching across the whole run and
// (b) keeps its prefetch accuracy above 50 % (stale snapshots are retrained
// within one visit, so mispredictions are bounded).
func TestPlanariaSurvivesPhaseChange(t *testing.T) {
	p, _ := workloads.ByAbbr("KO")
	phase1 := p.Generate(120_000)
	p2 := p
	p2.Seed += 999 // a different universe of pages and footprints
	phase2 := p2.Generate(120_000)
	tr := trace.Concat(phase1, phase2, 1000)

	run := func(pf string) (amat float64, acc float64) {
		f, err := NamedPrefetcher(pf)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.NewPrefetcher = f
		eng := New(cfg)
		rep, err := eng.RunStream(tr.Stream(), "phase")
		if err != nil {
			t.Fatal(err)
		}
		return rep.AMAT, rep.Accuracy()
	}

	baseAMAT, _ := run("none")
	plAMAT, plAcc := run("planaria")
	if plAMAT >= baseAMAT {
		t.Fatalf("phase change broke planaria: AMAT %.1f vs baseline %.1f", plAMAT, baseAMAT)
	}
	if plAcc < 0.5 {
		t.Fatalf("accuracy collapsed across the phase change: %.2f", plAcc)
	}
}
