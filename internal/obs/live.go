package obs

// The live views behind the CLIs' -live-dir flag: while a (possibly
// hours-long) run is in flight, three files in one directory are rewritten
// whole through WriteAtomic, so a reader never sees a torn view. Every
// source is read through atomics or point-in-time snapshots, so a write
// never blocks the simulation.

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/telemetry"
)

// The live-view file names inside a LiveViews directory.
const (
	// MetricsFile holds the registry in the Prometheus text exposition
	// format, where node_exporter's textfile collector picks it up.
	MetricsFile = "metrics.prom"
	// ProgressFile holds run progress: records, req/s, ETA, live p99.
	ProgressFile = "progress.json"
	// AttribFile holds the attribution snapshot.
	AttribFile = "attrib.json"
)

// LiveConfig wires LiveViews to a run's live state. A view whose source is
// nil is not written.
type LiveConfig struct {
	// Recorder is the run's event recorder, the source of attrib.json.
	Recorder *events.Recorder
	// Telemetry is the run's metrics registry, the source of metrics.prom
	// and, through telemetry.Registry.Progress, of progress.json.
	Telemetry *telemetry.Registry

	// Labels written into progress.json.
	Tool       string
	Workload   string
	Prefetcher string
}

// LiveViews rewrites a run's live views in one directory. Both CLIs write
// them every second while the run is in flight (see Every) and once more
// on every way out, failures included.
type LiveViews struct {
	dir   string
	cfg   LiveConfig
	start time.Time // progress elapsed time and rates count from here
}

// NewLiveViews returns the writer for dir, creating the directory, and
// writes the views once, so an unusable directory fails before the run
// starts.
func NewLiveViews(dir string, cfg LiveConfig) (*LiveViews, error) {
	v := &LiveViews{dir: dir, cfg: cfg, start: time.Now()}
	if err := v.Write(); err != nil {
		return nil, err
	}
	return v, nil
}

// Write rewrites every view whose source is set.
func (v *LiveViews) Write() error {
	if reg := v.cfg.Telemetry; reg != nil {
		if err := WriteAtomic(filepath.Join(v.dir, MetricsFile), func(w io.Writer) error {
			return telemetry.WritePrometheus(w, reg)
		}); err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(v.dir, ProgressFile), struct {
			Tool       string `json:"tool,omitempty"`
			Workload   string `json:"workload,omitempty"`
			Prefetcher string `json:"prefetcher,omitempty"`
			telemetry.Progress
		}{v.cfg.Tool, v.cfg.Workload, v.cfg.Prefetcher, reg.Progress(v.start)}); err != nil {
			return err
		}
	}
	if rec := v.cfg.Recorder; rec != nil {
		return writeJSON(filepath.Join(v.dir, AttribFile), rec.Attrib())
	}
	return nil
}

// writeJSON writes v to path as indented JSON through WriteAtomic.
func writeJSON(path string, v any) error {
	return WriteAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// Every calls each of ticks, in order, every period on one goroutine until
// the returned stop is called. stop waits for a tick in progress, so no
// tick runs after it returns, and is idempotent. With no ticks, Every
// starts nothing.
func Every(period time.Duration, ticks ...func()) (stop func()) {
	if len(ticks) == 0 {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				for _, tick := range ticks {
					tick()
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
