package sim

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/workloads"
)

// goldenN is the trace length of every golden cell. Large enough that all
// hot paths (evictions, row conflicts, late prefetches, warmup reset) are
// exercised; small enough that the full matrix stays test-suite friendly.
const goldenN = 25_000

// goldenPath is the pinned digest file. Regenerate with
//
//	UPDATE_GOLDENS=1 go test -run TestReportGoldens ./internal/sim/
//
// ONLY when a report change is intentional (new report field, changed
// simulated semantics) — never to paper over an unexplained diff: these
// digests are the bit-identical contract that pure performance work
// (data layout, precomputation, batching) must not move a single counter.
const goldenPath = "testdata/report_goldens.json"

// goldenKey names one cell of the golden matrix.
func goldenKey(app, pf, mode string) string { return app + "/" + pf + "/" + mode }

// goldenDigest hashes a report's canonical JSON form. The full JSON (not a
// subset) is pinned: every counter, the float AMAT bits, per-origin
// attribution maps and the windowed series all participate.
func goldenDigest(t *testing.T, rep interface{}) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReportGoldens pins the full-catalog × {planaria, planaria-tournament}
// report digests, serial and parallel, against checked-in pre-change
// goldens. Where the serial/parallel equivalence matrix proves the two
// execution modes agree with each other, this test proves both agree with
// the *past*: any change to simulated behaviour — however small — flips a
// digest and must be justified (and the file regenerated) explicitly.
func TestReportGoldens(t *testing.T) {
	want := map[string]string{}
	if data, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
	} else if os.Getenv("UPDATE_GOLDENS") == "" {
		t.Fatalf("missing golden file %s (run with UPDATE_GOLDENS=1 to create)", goldenPath)
	}

	got := map[string]string{}
	for _, p := range workloads.Catalog() {
		tr := p.Generate(goldenN)
		for _, pf := range []string{"planaria", "planaria-tournament"} {
			for _, mode := range []string{"serial", "parallel"} {
				factory, err := NamedPrefetcher(pf)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig()
				cfg.NewPrefetcher = factory
				cfg.SampleEvery = 5_000
				cfg.ParallelChannels = mode == "parallel"
				eng := New(cfg)
				rep, err := eng.Run(context.Background(), tr.Stream(), p.Abbr, 0.2)
				if err != nil {
					t.Fatal(err)
				}
				got[goldenKey(p.Abbr, pf, mode)] = goldenDigest(t, rep)
			}
		}
	}

	if os.Getenv("UPDATE_GOLDENS") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf []byte
		buf = append(buf, "{\n"...)
		for i, k := range keys {
			sep := ","
			if i == len(keys)-1 {
				sep = ""
			}
			buf = append(buf, fmt.Sprintf("  %q: %q%s\n", k, got[k], sep)...)
		}
		buf = append(buf, "}\n"...)
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d goldens to %s", len(got), goldenPath)
		return
	}

	for k, h := range got {
		if want[k] == "" {
			t.Errorf("%s: no pinned golden (matrix grew? regenerate deliberately)", k)
			continue
		}
		if h != want[k] {
			t.Errorf("%s: report digest %s differs from pinned golden %s", k, h, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: pinned golden no longer produced (matrix shrank?)", k)
		}
	}
}
