package events

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/addr"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRecorder builds a small deterministic recorder covering every event
// kind and both slice-annotation paths (fill/used updating an open issue
// slice, and a lifecycle event whose issue was dropped falling back to an
// instant).
func goldenRecorder() *Recorder {
	r := NewRecorder(2, 16)
	b := addr.PageNum(0x40).Block(1)
	c0 := r.Channel(0)
	c0.Emit(Event{Kind: KindDemand, Cycle: 10, Block: b})
	c0.Emit(Event{Kind: KindArbitration, Cycle: 10, Block: b, Origin: OriginSLP, Reason: ReasonSLPPriority, N: 3})
	c0.Emit(Event{Kind: KindIssue, Cycle: 10, Block: b + 1, Aux: 310, Origin: OriginSLP})
	c0.Emit(Event{Kind: KindFill, Cycle: 310, Block: b + 1, Origin: OriginSLP})
	c0.Emit(Event{Kind: KindUsed, Cycle: 400, Block: b + 1, Origin: OriginSLP})
	c0.Emit(Event{Kind: KindSLPPromote, Cycle: 50, Aux: 0x40})
	c0.Emit(Event{Kind: KindSLPSnapshot, Cycle: 500, Aux: 0x40, N: 4})
	// A demand hit: filtered out of the export.
	c0.Emit(Event{Kind: KindDemand, Cycle: 600, Block: b, Flags: FlagHit})

	c1 := r.Channel(1)
	c1.Emit(Event{Kind: KindTLPNeighbor, Cycle: 20, Block: b, Aux: 0x44, N: 2})
	c1.Emit(Event{Kind: KindArbitration, Cycle: 20, Block: b, Origin: OriginTLP, Reason: ReasonNoMetadata, N: 1})
	c1.Emit(Event{Kind: KindIssue, Cycle: 20, Block: b + 2, Aux: 320, Origin: OriginTLP})
	c1.Emit(Event{Kind: KindLateHit, Cycle: 100, Block: b + 2, Aux: 320, Origin: OriginTLP})
	c1.Emit(Event{Kind: KindFill, Cycle: 320, Block: b + 2, Origin: OriginTLP, Flags: FlagLate})
	// Lifecycle event without an open slice (its issue predates the ring).
	c1.Emit(Event{Kind: KindEvictUnused, Cycle: 900, Block: b + 3, Origin: OriginTLP})
	return r
}

func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	meta := TraceMeta{Tool: "planaria-sim", Workload: "CFM", Prefetcher: "planaria"}
	if err := WriteChromeTrace(&buf, goldenRecorder(), meta); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrometrace.golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/events -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome trace export drifted from golden file\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRecorder(), TraceMeta{Tool: "t"}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateChromeTrace(&buf)
	if err != nil {
		t.Fatalf("round-trip validation failed: %v", err)
	}
	// process_name + two thread_name metadata events plus the rendered
	// payload; fill/used collapse into their issue slices and the demand
	// hit is filtered, so the exact count is an implementation detail —
	// the golden file pins it, this test only sanity-checks the floor.
	if n < 10 {
		t.Fatalf("validated %d events, implausibly few", n)
	}
}

func TestWriteChromeTraceSliceAnnotation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRecorder(), TraceMeta{Tool: "t"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`"outcome": "used"`,           // channel 0 slice reached its terminal state
		`"outcome": "late"`,           // channel 1 fill carried FlagLate
		`"outcome": "evicted-unused"`, // orphan lifecycle event fell back to an instant
		`"suppressed": "slp-priority"`,
		`"suppressed": "no-metadata"`,
		`"name": "late-hit"`,
		`"name": "slp-promote"`,
		`"name": "tlp-neighbor"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("export missing %s", want)
		}
	}
	if strings.Contains(out, `"outcome": "in-flight"`) {
		t.Error("a matched issue slice kept its in-flight placeholder")
	}
	// The filtered demand hit must not appear.
	if strings.Count(out, `"name": "miss"`) != 1 {
		t.Errorf("demand-hit filtering broke: %d miss instants", strings.Count(out, `"name": "miss"`))
	}
}

func TestWriteChromeTraceRequiresRings(t *testing.T) {
	r := NewRecorder(2, 0)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r, TraceMeta{}); err == nil {
		t.Fatal("attribution-only recorder exported a trace")
	}
	if err := WriteChromeTrace(&buf, nil, TraceMeta{}); err == nil {
		t.Fatal("nil recorder exported a trace")
	}
}

func TestValidateChromeTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      "{",
		"no events":     `{"traceEvents":[]}`,
		"unnamed event": `{"traceEvents":[{"ph":"i"}]}`,
		"bad phase":     `{"traceEvents":[{"name":"x","ph":"Z"}]}`,
	}
	for label, in := range cases {
		if _, err := ValidateChromeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	if n, err := ValidateChromeTrace(strings.NewReader(`{"traceEvents":[{"name":"x","ph":"M"}]}`)); err != nil || n != 1 {
		t.Errorf("minimal valid trace: n=%d err=%v", n, err)
	}
}

// FuzzValidateChromeTrace: the validator behind `experiments
// -validate-trace` never panics on any input, and the count it returns for
// an accepted trace is the length of its traceEvents array. The seeds are a
// trace exported from a short recorded run, an empty event array and an
// event with an unknown phase.
func FuzzValidateChromeTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenRecorder(), TraceMeta{Tool: "planaria-sim", Workload: "CFM"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"x","ph":"Z"}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		n, err := ValidateChromeTrace(bytes.NewReader(in))
		if err != nil {
			return
		}
		var raw struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.NewDecoder(bytes.NewReader(in)).Decode(&raw); err != nil {
			t.Fatalf("accepted a trace that does not decode: %v", err)
		}
		if n != len(raw.TraceEvents) {
			t.Fatalf("counted %d events of %d", n, len(raw.TraceEvents))
		}
	})
}
