package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// syntheticResults builds a results record with plausible samples for
// every workload and metric; scale multiplies every wall_s sample.
func syntheticResults(scale float64) *results {
	res := &results{Provenance: provenance{Seed: 1}, Workloads: map[string]*workloadResult{}}
	for _, w := range workloadList {
		wr := &workloadResult{Attempted: 30, EndToEnd: map[string]summary{}, PerLayer: map[string]value{}}
		for i, m := range endToEnd {
			xs := []float64{1.00, 1.02, 0.99, 1.01, 1.03, 0.98, 1.00}
			for j := range xs {
				xs[j] *= float64(i + 1)
				if m.Name == "wall_s" {
					xs[j] *= scale
				}
			}
			wr.EndToEnd[m.Name] = summarize(m.Unit, xs)
		}
		for i, m := range perLayer {
			wr.PerLayer[m.Name] = value{Value: float64(i + 1), Unit: m.Unit}
		}
		res.Workloads[w.name] = wr
	}
	return res
}

func TestCompare(t *testing.T) {
	base := syntheticResults(1)
	if !compareResults(io.Discard, base, syntheticResults(1)) {
		t.Error("an identical pair was flagged")
	}
	if compareResults(io.Discard, base, syntheticResults(1.3)) {
		t.Error("a 30% wall_s slowdown passed its 25% bound")
	}
	if !compareResults(io.Discard, base, syntheticResults(1.15)) {
		t.Error("a 15% wall_s slowdown, within its 25% bound, was flagged")
	}
	if !compareResults(io.Discard, base, syntheticResults(0.7)) {
		t.Error("a 30% wall_s speed-up was flagged")
	}

	count := syntheticResults(1)
	v := count.Workloads["cfm-planaria-10m"].PerLayer["cache.writebacks"]
	v.Value++
	count.Workloads["cfm-planaria-10m"].PerLayer["cache.writebacks"] = v
	if compareResults(io.Discard, base, count) {
		t.Error("a differing per-layer count passed")
	}

	host := syntheticResults(1)
	h := host.Workloads["cfm-planaria-10m"].PerLayer["sim.step_ns_per_record"]
	h.Value *= 1.4
	host.Workloads["cfm-planaria-10m"].PerLayer["sim.step_ns_per_record"] = h
	if !compareResults(io.Discard, base, host) {
		t.Error("a per-layer host time failed the comparison; it is only reported")
	}

	failed := syntheticResults(1)
	failed.Workloads["sweep-grid-80"].Failed = 1
	if compareResults(io.Discard, base, failed) {
		t.Error("a side with a failed invocation passed")
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metric tables the benchmark measures.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(spec.Command, want) {
		t.Errorf("command %v, want %v", spec.Command, want)
	}
	if len(spec.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadList))
	}
	for i, w := range workloadList {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metric, bounds bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, m)
			}
			switch {
			case bounds && (g.Bound == nil || *g.Bound != m.Bound):
				t.Errorf("%s %s: bound %v, want %v", kind, m.Name, g.Bound, m.Bound)
			case !bounds && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
