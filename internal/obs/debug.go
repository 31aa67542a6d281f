package obs

// This file implements the live introspection endpoint behind the CLIs'
// -debug-addr flag: a small HTTP server exposing run progress, the live
// attribution snapshot, the metrics registry and the net/http/pprof
// profiling handlers while a (possibly hours-long) streamed run is in
// flight. Everything served here reads atomics or takes point-in-time
// snapshots, so the simulation hot path is never blocked by a request.
//
// The pprof handlers are registered explicitly on a private mux rather than
// through the pprof package's DefaultServeMux side effect, so tests (and
// processes embedding several servers) never hit duplicate-registration
// panics.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/events"
	"repro/internal/telemetry"
)

// DebugConfig wires a DebugServer to a run's live state. Any source may
// be nil: the corresponding endpoints then report "not enabled".
type DebugConfig struct {
	// Recorder is the run's event recorder; its attribution snapshot is
	// safe to take mid-run.
	Recorder *events.Recorder
	// Telemetry is the run's live metrics registry, served in Prometheus
	// text exposition format at /metrics and as the progress view
	// (telemetry.Registry.Progress) at /progress. Scrape-safe mid-run.
	Telemetry *telemetry.Registry

	// Labels echoed on the index page and in /progress.
	Tool       string
	Workload   string
	Prefetcher string
}

// DebugServer is a live introspection HTTP server. Start with
// StartDebugServer, stop with Close; both CLIs close it on run end,
// cancellation and failure alike.
type DebugServer struct {
	cfg   DebugConfig
	ln    net.Listener
	srv   *http.Server
	start time.Time // progress elapsed time and rates count from here
}

// StartDebugServer listens on addr (e.g. "localhost:6060"; an empty port
// picks a free one) and serves the introspection endpoints in a background
// goroutine until Close.
func StartDebugServer(addr string, cfg DebugConfig) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug server listen %s: %w", addr, err)
	}
	d := &DebugServer{cfg: cfg, ln: ln, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/", d.handleIndex)
	mux.HandleFunc("/progress", d.handleProgress)
	mux.HandleFunc("/attrib", d.handleAttrib)
	mux.HandleFunc("/metrics", d.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	d.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go d.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return d, nil
}

// Addr returns the listen address actually bound (useful with port 0).
func (d *DebugServer) Addr() string {
	return d.ln.Addr().String()
}

// Close shuts the server down immediately, closing the listener and any
// open connections. Safe to call more than once.
func (d *DebugServer) Close() error {
	return d.srv.Close()
}

// handleIndex serves a minimal plain-text directory of the endpoints.
func (d *DebugServer) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "%s %s/%s — live run introspection\n\n", d.cfg.Tool, d.cfg.Workload, d.cfg.Prefetcher)
	fmt.Fprintln(w, "/progress      run progress (records, req/s, ETA) as JSON")
	fmt.Fprintln(w, "/attrib        live prefetch-lifecycle attribution snapshot as JSON")
	fmt.Fprintln(w, "/metrics       live metrics in Prometheus text exposition format")
	fmt.Fprintln(w, "/debug/pprof/  net/http/pprof profiling handlers")
}

// handleProgress serves the progress view of the registry.
func (d *DebugServer) handleProgress(w http.ResponseWriter, _ *http.Request) {
	if d.cfg.Telemetry == nil {
		http.Error(w, "telemetry not enabled for this run", http.StatusNotFound)
		return
	}
	writeJSON(w, struct {
		Tool       string `json:"tool,omitempty"`
		Workload   string `json:"workload,omitempty"`
		Prefetcher string `json:"prefetcher,omitempty"`
		telemetry.Progress
	}{d.cfg.Tool, d.cfg.Workload, d.cfg.Prefetcher, d.cfg.Telemetry.Progress(d.start)})
}

// handleAttrib serves a point-in-time attribution snapshot.
func (d *DebugServer) handleAttrib(w http.ResponseWriter, _ *http.Request) {
	if d.cfg.Recorder == nil {
		http.Error(w, "event tracing not enabled for this run", http.StatusNotFound)
		return
	}
	writeJSON(w, d.cfg.Recorder.Attrib())
}

// handleMetrics serves the run's registry in the Prometheus text
// exposition format. Every read is an atomic snapshot, so scraping mid-run
// never blocks the simulation.
func (d *DebugServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if d.cfg.Telemetry == nil {
		http.Error(w, "telemetry not enabled for this run", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	telemetry.WritePrometheus(w, d.cfg.Telemetry) //nolint:errcheck // client went away; nothing useful to do
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort response write
}
