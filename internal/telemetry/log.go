package telemetry

// Structured logging: thin helpers over the standard library's log/slog
// used by both CLIs, so ad-hoc fmt.Fprintf(os.Stderr, ...) prints become
// levelled, optionally-JSON records carrying run-scoped attributes (run
// id, app, prefetcher) that a log pipeline can filter on.

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"strings"
)

// ParseLevel maps a -log-level flag value ("debug", "info", "warn",
// "error", case-insensitive) to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a slog.Logger writing to w at the given level, as
// line-oriented text or JSON. Timestamps are kept (operators correlate
// log lines with scrapes); everything else is plain slog.
func NewLogger(w io.Writer, level slog.Level, asJSON bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	if asJSON {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// NewRunID returns a short random id, 8 hex digits, identifying one run
// in log streams that interleave several (the experiments sweep, a farm).
// It labels log lines and is not a secret, so it draws from the
// runtime-seeded math/rand/v2 rather than crypto/rand.
func NewRunID() string {
	return fmt.Sprintf("%08x", rand.Uint32())
}
