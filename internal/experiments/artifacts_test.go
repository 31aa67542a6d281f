package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// TestWriteCSVDeterministic: two CSV renderings of the same sweep result
// must be byte-identical — row order may not depend on map iteration.
func TestWriteCSVDeterministic(t *testing.T) {
	reps, err := Sweep([]string{"planaria", "none", "bop"}, Options{Requests: 20_000, Warmup: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteCSV(&a, reps); err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&b, reps); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV output differs between renderings of the same sweep")
	}
}

// TestCellsOrdering: cells come out in Table 2 app order with prefetchers
// sorted within each app.
func TestCellsOrdering(t *testing.T) {
	reps, err := Sweep([]string{"planaria", "none"}, Options{Requests: 20_000, Warmup: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cells := Cells(reps)
	if len(cells) != len(reps)*2 {
		t.Fatalf("got %d cells, want %d", len(cells), len(reps)*2)
	}
	for i := 0; i+1 < len(cells); i += 2 {
		if cells[i].App != cells[i+1].App {
			t.Fatalf("cells %d/%d not grouped by app: %s vs %s", i, i+1, cells[i].App, cells[i+1].App)
		}
		if cells[i].Prefetcher != "none" || cells[i+1].Prefetcher != "planaria" {
			t.Fatalf("prefetchers not sorted within app %s: %s, %s",
				cells[i].App, cells[i].Prefetcher, cells[i+1].Prefetcher)
		}
	}
}

// TestSweepArtifactDir: with ArtifactDir set, Sweep checkpoints one valid
// farm artifact per cell, sampled runs carry their time series through,
// and a second Sweep over the same directory resumes every cell, simulating
// nothing.
func TestSweepArtifactDir(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Requests: 20_000, Warmup: 0.2, SampleEvery: 5_000, ArtifactDir: dir}
	reps, err := Sweep([]string{"none", "planaria"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := len(reps) * 2
	if len(entries) != want {
		t.Fatalf("wrote %d artifacts, want %d", len(entries), want)
	}
	path := filepath.Join(dir, "CFM_planaria_base_r0.json")
	art, err := obs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if art.Manifest.Workload != "CFM" || art.Manifest.Prefetcher != "planaria" {
		t.Fatalf("manifest cell fields wrong: %+v", art.Manifest)
	}
	if art.Manifest.SampleEvery != 5_000 || art.Manifest.Requests != 20_000 {
		t.Fatalf("manifest run fields wrong: %+v", art.Manifest)
	}
	if art.Report == nil || art.Report.Series == nil || len(art.Report.Series.Samples) == 0 {
		t.Fatal("artifact report missing the sampled time series")
	}
	// The artifact's report must agree with the in-memory sweep result.
	if art.Report.AMAT != reps["CFM"]["planaria"].AMAT {
		t.Fatalf("artifact AMAT %v != sweep AMAT %v",
			art.Report.AMAT, reps["CFM"]["planaria"].AMAT)
	}

	reg := telemetry.NewRegistry()
	opts.Progress = reg
	again, err := Sweep([]string{"none", "planaria"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if records, expected := telemetry.RunProgress(reg); records.Value() != 0 || expected.Value() != 0 {
		t.Fatalf("resumed sweep processed %d records of %d declared; want 0", records.Value(), expected.Value())
	}
	// Compared as JSON: a checkpoint does not keep an empty map apart from
	// a nil one.
	a, err := json.Marshal(reps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("resumed sweep's reports differ from the sweep that wrote the checkpoints")
	}
}
