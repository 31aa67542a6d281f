package main

import (
	"crypto/sha256"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workloads"
)

// TestDefaultGeometryIgnoresHost runs one cell under the options the
// default flags select at several GOMAXPROCS values: the host's core count
// must not choose the simulated system, so every run reports the same
// bytes. Only the record count is cut, to keep the test short.
func TestDefaultGeometryIgnoresHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p := workloads.Catalog()[0]
	var want [sha256.Size]byte
	for i, procs := range []int{1, 4, 8, 16} {
		runtime.GOMAXPROCS(procs)
		opts, err := runOptions()
		if err != nil {
			t.Fatal(err)
		}
		opts.Requests = 20_000
		rep, err := experiments.RunOne(p, "planaria", opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(b); i == 0 {
			want = got
		} else if got != want {
			t.Errorf("GOMAXPROCS %d: report digest %x, want %x (GOMAXPROCS 1)", procs, got[:6], want[:6])
		}
	}
}

// TestSubShardsFlagRefusesSharding: the deprecated -subshards flag accepts
// 0 and 1, and runOptions refuses any larger value.
func TestSubShardsFlagRefusesSharding(t *testing.T) {
	defer func(v int) { *subshards = v }(*subshards)
	for _, c := range []struct {
		value int
		ok    bool
	}{{0, true}, {1, true}, {2, false}} {
		*subshards = c.value
		if _, err := runOptions(); (err == nil) != c.ok {
			t.Errorf("-subshards %d: error %v, want ok=%v", c.value, err, c.ok)
		}
	}
}
