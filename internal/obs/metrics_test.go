package obs

// Tests for the /metrics endpoint: static serving semantics, and the real
// mid-run concurrency pattern under -race — a live engine hammering the
// sharded instruments while an HTTP client scrapes and validates the
// exposition.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// TestMetricsEndpoint pins the serving contract: a populated registry,
// run-progress series included, is exposed in valid Prometheus text format
// with each family declared once; a server without a registry 404s.
func TestMetricsEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("test_ops_total", "Operations.").Add(42)
	reg.Histogram("test_latency_cycles", "Latency.").Record(100)
	records, expected := telemetry.RunProgress(reg)
	records.Add(250)
	expected.Add(1000)

	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{Telemetry: reg, Tool: "test"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", d.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type %q, want the 0.0.4 exposition version", ct)
	}
	body := getBody(t, d, "/metrics", http.StatusOK)
	for _, want := range []string{
		"test_ops_total 42",
		"test_latency_cycles_count 1",
		"planaria_run_records_total 250",
		"planaria_run_records_expected 1000",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if n := strings.Count(body, "# TYPE planaria_run_records_total "); n != 1 {
		t.Errorf("%d TYPE lines for planaria_run_records_total, want 1", n)
	}
	if strings.Contains(body, "planaria_run_req_per_s") {
		t.Error("req/s is rate() of the records counter, not a family")
	}
	if err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
		t.Errorf("exposition invalid: %v", err)
	}
	if !strings.Contains(getBody(t, d, "/", http.StatusOK), "/metrics") {
		t.Error("index missing /metrics")
	}

	// No registry: 404, like /progress and /attrib.
	d2, err := StartDebugServer("127.0.0.1:0", DebugConfig{Tool: "bare"})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	getBody(t, d2, "/metrics", http.StatusNotFound)
}

// TestMetricsScrapeLiveRun is the mid-run scrape pattern under -race: a
// telemetry-enabled engine run in flight while an HTTP client scrapes
// /metrics in a loop, validating every payload against the exposition
// grammar. Engine workers record into the sharded instruments concurrently
// with WritePrometheus snapshotting them.
func TestMetricsScrapeLiveRun(t *testing.T) {
	reg := telemetry.NewRegistry()
	d, err := StartDebugServer("127.0.0.1:0", DebugConfig{Telemetry: reg, Tool: "live"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cfg := sim.DefaultConfig()
	cfg.Telemetry = reg
	p := workloads.Catalog()[0]
	const n = 400_000

	var run sync.WaitGroup
	run.Add(1)
	runErr := make(chan error, 1)
	finished := make(chan struct{})
	go func() {
		defer run.Done()
		defer close(finished)
		eng := sim.New(cfg)
		if _, err := eng.RunStream(p.Stream(n), p.Abbr); err != nil {
			runErr <- err
		}
	}()

	// Scrape until the run completes (a fast host may only fit a scrape or
	// two mid-run; the -race CI leg slows the run enough for many).
	scrapes := 0
	for done := false; !done; {
		select {
		case <-finished:
			done = true
		default:
		}
		body := getBody(t, d, "/metrics", http.StatusOK)
		scrapes++
		if err := telemetry.ValidateExposition(strings.NewReader(body)); err != nil {
			t.Errorf("scrape %d invalid: %v", scrapes, err)
		}
	}
	run.Wait()
	select {
	case err := <-runErr:
		t.Fatal(err)
	default:
	}
	var progress telemetry.Progress
	if err := json.Unmarshal([]byte(getBody(t, d, "/progress", http.StatusOK)), &progress); err != nil {
		t.Fatal(err)
	}
	if progress.Records != n || progress.Total != n {
		t.Fatalf("progress %d/%d records, want %d/%d", progress.Records, progress.Total, n, n)
	}
	// The final scrape must reflect the whole run.
	body := getBody(t, d, "/metrics", http.StatusOK)
	if !strings.Contains(body, "planaria_demand_reads_total") {
		t.Error("final scrape missing demand read counters")
	}
	if progress.P99DemandLatCycles <= 0 {
		t.Errorf("progress p99 = %v, want a positive live reading", progress.P99DemandLatCycles)
	}
}
