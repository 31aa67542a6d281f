package power

import (
	"math"
	"testing"

	"repro/internal/dram"
)

func TestAccountLinear(t *testing.T) {
	ds := dram.Stats{Reads: 10, Writes: 5, Activates: 4, Refreshes: 2}
	b := Account(ds, 100, 50, 1000, 10000)
	p := DefaultParams()
	if b.Read != 10*p.ReadBurstPJ || b.Write != 5*p.WriteBurstPJ {
		t.Fatalf("burst energy wrong: %+v", b)
	}
	if b.Activate != 4*p.ActPrePJ || b.Refresh != 2*p.RefreshPJ {
		t.Fatalf("row/refresh energy wrong: %+v", b)
	}
	if b.Background != 10000*p.BackgroundPJ || b.SysCache != 100*p.SCAccessPJ {
		t.Fatalf("static energy wrong: %+v", b)
	}
	if b.Metadata != 50*p.MetaAccessPJ {
		t.Fatalf("small-array metadata should not be scaled: %+v", b)
	}
	sum := b.Activate + b.Read + b.Write + b.Refresh + b.Background + b.SysCache + b.Metadata
	if math.Abs(b.Total()-sum) > 1e-9 {
		t.Fatal("Total != sum of parts")
	}
}

func TestMetadataScalesWithArraySize(t *testing.T) {
	small := Account(dram.Stats{}, 0, 100, 65536, 0).Metadata
	big := Account(dram.Stats{}, 0, 100, 65536*16, 0).Metadata
	if math.Abs(big/small-4) > 1e-9 { // sqrt(16) = 4
		t.Fatalf("metadata scaling %v, want 4x", big/small)
	}
}

func TestAdd(t *testing.T) {
	a := Breakdown{Activate: 1, Read: 2, Write: 3, Refresh: 4, Background: 5, SysCache: 6, Metadata: 7}
	b := Add(a, a)
	if b.Total() != 2*a.Total() {
		t.Fatalf("Add broken: %v vs %v", b.Total(), a.Total())
	}
}

func TestAvgPowerMW(t *testing.T) {
	// 1 µJ over 1600 cycles at 1600 MHz = 1 µs → 1 W = 1000 mW.
	b := Breakdown{Read: 1e6} // 1e6 pJ = 1 µJ
	got := AvgPowerMW(b, 1600, 1600)
	if math.Abs(got-1000) > 1e-6 {
		t.Fatalf("AvgPowerMW = %v, want 1000", got)
	}
	if AvgPowerMW(b, 0, 1600) != 0 || AvgPowerMW(b, 100, 0) != 0 {
		t.Fatal("degenerate inputs must yield 0")
	}
}
