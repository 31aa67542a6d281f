package telemetry

import (
	"testing"
	"time"
)

func TestRegistryProgress(t *testing.T) {
	r := NewRegistry()
	records, expected := RunProgress(r)
	if again, _ := RunProgress(r); again != records {
		t.Fatal("RunProgress registered a second records counter")
	}
	expected.Add(1000)
	records.Add(200)
	records.Add(300)
	p := r.Progress(time.Now().Add(-time.Second))
	if p.Records != 500 || p.Total != 1000 || p.Fraction != 0.5 {
		t.Fatalf("records/total/fraction = %d/%d/%v", p.Records, p.Total, p.Fraction)
	}
	if p.ElapsedSec < 1 || p.ReqPerSec <= 0 || p.ETASec <= 0 {
		t.Fatalf("elapsed %v, req/s %v, ETA %v", p.ElapsedSec, p.ReqPerSec, p.ETASec)
	}
	if p.P99DemandLatCycles != 0 {
		t.Fatalf("p99 %v before any latency observation", p.P99DemandLatCycles)
	}
	r.Histogram(MetricDRAMDemandReadLatency, "Latency.", Label{"channel", "0"}).Record(100)
	records.Add(500)
	if p := r.Progress(time.Now().Add(-time.Second)); p.Records != 1000 || p.ETASec != 0 || p.P99DemandLatCycles <= 0 {
		t.Fatalf("completed progress %+v", p)
	}
}

func TestRegistryProgressUnknownTotal(t *testing.T) {
	r := NewRegistry()
	records, expected := RunProgress(r)
	records.Add(42)
	p := r.Progress(time.Now())
	if p.Records != 42 || p.Total != 0 || p.Fraction != 0 || p.ETASec != 0 {
		t.Fatalf("unknown-total progress %+v", p)
	}
	expected.Add(-5)
	if p := r.Progress(time.Now()); p.Total != 0 {
		t.Fatalf("negative total surfaced as %d", p.Total)
	}
	// A nil registry is the disabled state: zero progress, no panic.
	var off *Registry
	if p := off.Progress(time.Now()); p.Records != 0 || p.Total != 0 {
		t.Fatalf("nil registry progress %+v", p)
	}
}
