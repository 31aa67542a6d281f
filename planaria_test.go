package planaria

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/sim"
)

func TestWorkloadsCatalog(t *testing.T) {
	ws := Workloads()
	if len(ws) != 10 {
		t.Fatalf("workloads = %d, want 10", len(ws))
	}
	for _, w := range ws {
		if w.Name == "" || w.Abbr == "" || w.Description == "" {
			t.Fatalf("incomplete workload info %+v", w)
		}
	}
}

func TestGenerateTraceShape(t *testing.T) {
	tr := GenerateTrace("CFM", 5000)
	if len(tr) != 5000 {
		t.Fatalf("trace length %d", len(tr))
	}
	var prev uint64
	for i, a := range tr {
		if a.Cycle < prev {
			t.Fatalf("cycle order violated at %d", i)
		}
		prev = a.Cycle
		if a.Addr%64 != 0 {
			t.Fatalf("unaligned address %#x", a.Addr)
		}
		if a.Device == "" {
			t.Fatal("missing device")
		}
	}
}

func TestGenerateTracePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateTrace("XYZ", 10)
}

func TestRunWorkloadEveryPrefetcher(t *testing.T) {
	for _, pf := range Prefetchers() {
		res, err := RunWorkload("HI3", pf, 20000)
		if err != nil {
			t.Fatalf("%s: %v", pf, err)
		}
		if res.DemandReads == 0 || res.AMAT <= 0 {
			t.Fatalf("%s: degenerate result %+v", pf, res)
		}
	}
}

func TestPlanariaBeatsNoneOnWorkload(t *testing.T) {
	base, err := RunWorkload("KO", "none", 150_000)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := RunWorkload("KO", "planaria", 150_000)
	if err != nil {
		t.Fatal(err)
	}
	if pl.HitRate <= base.HitRate {
		t.Fatalf("planaria hit rate %.3f not above baseline %.3f", pl.HitRate, base.HitRate)
	}
	if pl.AMAT >= base.AMAT {
		t.Fatalf("planaria AMAT %.1f not below baseline %.1f", pl.AMAT, base.AMAT)
	}
	if pl.IPC <= base.IPC {
		t.Fatalf("planaria IPC %.3f not above baseline %.3f", pl.IPC, base.IPC)
	}
	// Power-efficiency claim: Planaria's extra traffic stays small.
	if float64(pl.DRAMTraffic) > 1.10*float64(base.DRAMTraffic) {
		t.Fatalf("planaria traffic %d exceeds +10%% of baseline %d", pl.DRAMTraffic, base.DRAMTraffic)
	}
}

func TestSimulatorRejectsBadConfig(t *testing.T) {
	if _, err := NewSimulator(Options{Prefetcher: "bogus"}); err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
	if _, err := NewSimulator(Options{CacheBytes: 100}); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}

func TestStepAfterFinishRejected(t *testing.T) {
	s, err := NewSimulator(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Step(Access{Addr: 0x1000}); err != nil {
		t.Fatal(err)
	}
	s.Finish()
	if err := s.Step(Access{Addr: 0x2000, Cycle: 10}); err == nil {
		t.Fatal("step after finish accepted")
	}
}

// TestStepRejectsBackwardCycle: an access whose cycle goes backwards is
// refused even when it hits in the SC, and a refused access leaves the
// simulator able to take the next one in order.
func TestStepRejectsBackwardCycle(t *testing.T) {
	s, err := NewSimulator(Options{Prefetcher: "planaria"})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cycle uint64
		ok    bool
	}{{1000, true}, {10, false}, {2000, true}} {
		if err := s.Step(Access{Addr: 0x1000, Cycle: c.cycle}); (err == nil) != c.ok {
			t.Fatalf("Step at cycle %d: err %v", c.cycle, err)
		}
	}
}

func TestStepRejectsUnknownDevice(t *testing.T) {
	s, _ := NewSimulator(Options{})
	if err := s.Step(Access{Addr: 0x1000, Device: "quantum"}); err == nil {
		t.Fatal("unknown device accepted")
	}
}

// echoPrefetcher next-line prefetches through the public interface.
type echoPrefetcher struct{ issued int }

func (e *echoPrefetcher) Name() string       { return "echo" }
func (e *echoPrefetcher) StorageBits() int   { return 8 }
func (e *echoPrefetcher) Train(Access, bool) {}
func (e *echoPrefetcher) Issue(a Access, miss bool) []uint64 {
	if !miss {
		return nil
	}
	e.issued++
	return []uint64{a.Addr + 64}
}

func TestCustomPrefetcherPlugsIn(t *testing.T) {
	var pfs []*echoPrefetcher
	s, err := NewSimulator(Options{Custom: func(ch int) Prefetcher {
		p := &echoPrefetcher{}
		pfs = append(pfs, p)
		return p
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(pfs) != 4 {
		t.Fatalf("custom constructor called %d times, want 4 (one per channel)", len(pfs))
	}
	res, err := s.Run(GenerateTrace("CFM", 20000))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range pfs {
		total += p.issued
	}
	if total == 0 {
		t.Fatal("custom prefetcher never consulted")
	}
	if res.PrefetchIssued == 0 {
		t.Fatal("custom prefetches did not reach the queue")
	}
	if res.Prefetcher != "echo" {
		t.Fatalf("prefetcher name %q", res.Prefetcher)
	}
}

func TestResultFieldsPopulated(t *testing.T) {
	res, err := RunWorkload("TikT", "planaria", 60000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "TikT" || !strings.HasPrefix(res.Prefetcher, "planaria") {
		t.Fatalf("labels %q/%q", res.Workload, res.Prefetcher)
	}
	if res.EnergyPJ <= 0 || res.AvgPowerMW <= 0 || res.Cycles == 0 {
		t.Fatalf("energy/cycles unset: %+v", res)
	}
	if res.StorageBits <= 0 {
		t.Fatal("storage bits unset")
	}
	if res.Accuracy <= 0 || res.Accuracy > 1 || res.Coverage <= 0 || res.Coverage > 1 {
		t.Fatalf("accuracy/coverage out of range: %+v", res)
	}
}

// echoComponent is echoPrefetcher as a tournament entrant.
type echoComponent struct{ echoPrefetcher }

func (e *echoComponent) Peek(Access, bool) []uint64 { return nil }

// TestTournamentCustomJoinsBuiltInSet: TournamentCustom without Tournament
// appends to exactly planaria-tournament's components, in the same order
// and at the same geometry.
func TestTournamentCustomJoinsBuiltInSet(t *testing.T) {
	s, err := NewSimulator(Options{TournamentCustom: func(int) []Component {
		return []Component{&echoComponent{}}
	}})
	if err != nil {
		t.Fatal(err)
	}
	builtin, err := sim.NamedPrefetcher("planaria-tournament")
	if err != nil {
		t.Fatal(err)
	}
	want := builtin(0).(*prefetch.Tournament).Components()
	got := s.eng.Channel(0).(*prefetch.Tournament).Components()
	if len(got) != len(want)+1 || got[len(want)].Name() != "echo" {
		t.Fatalf("%d components, want planaria-tournament's %d then echo", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; reflect.TypeOf(g) != reflect.TypeOf(w) || g.Name() != w.Name() || g.StorageBits() != w.StorageBits() {
			t.Errorf("component %d: %s (%T, %d bits), want %s (%T, %d bits)",
				i, g.Name(), g, g.StorageBits(), w.Name(), w, w.StorageBits())
		}
	}
}

// reusePrefetcher next-line prefetches through the public Component
// interface from a slice it reuses, so it allocates nothing itself.
type reusePrefetcher struct{ buf []uint64 }

func (r *reusePrefetcher) Name() string                       { return "reuse" }
func (r *reusePrefetcher) StorageBits() int                   { return 8 }
func (r *reusePrefetcher) Train(Access, bool)                 {}
func (r *reusePrefetcher) Issue(a Access, miss bool) []uint64 { return r.Peek(a, miss) }
func (r *reusePrefetcher) Peek(a Access, miss bool) []uint64 {
	if !miss {
		return nil
	}
	r.buf = append(r.buf[:0], a.Addr+64)
	return r.buf
}

// TestCustomPrefetcherStepsAllocationFree: once warm, the simulator steps a
// custom prefetcher, and a tournament with a custom entrant, without
// allocating, when the custom code returns a reused slice. The adapter
// appends the public addresses to the engine's candidate buffer.
func TestCustomPrefetcherStepsAllocationFree(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"custom", Options{Custom: func(int) Prefetcher { return &reusePrefetcher{} }}},
		{"tournament-custom", Options{TournamentCustom: func(int) []Component {
			return []Component{&reusePrefetcher{}}
		}}},
	}
	tr := GenerateTrace("CFM", 300_000)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSimulator(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			steps := func(n int) {
				for end := next + n; next < end; next++ {
					if err := s.Step(tr[next]); err != nil {
						t.Fatal(err)
					}
				}
			}
			steps(200_000)
			// AllocsPerRun divides by the runs in integers, so one run of
			// 1,000 Steps counts every allocation they make.
			if n := testing.AllocsPerRun(1, func() { steps(1_000) }); n != 0 {
				t.Fatalf("%.0f allocations in 1,000 warm Steps, want 0", n)
			}
		})
	}
}
