package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestReadTrace loads a whole binary trace, and refuses one cut mid-record.
func TestReadTrace(t *testing.T) {
	p, _ := workloads.ByAbbr("CFM")
	want := p.Generate(5000)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cfm.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %d records, not the %d written", len(got), len(want))
	}

	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readTrace(path); err == nil {
		t.Fatalf("a trace cut mid-record loaded %d records", len(got))
	}
}
