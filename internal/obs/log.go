package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// level is shared by every logger built with NewLogger, so SetLevel
// takes effect even after the logger has been swapped.
var level slog.LevelVar

var current atomic.Pointer[slog.Logger]

func init() {
	level.Set(slog.LevelInfo)
	current.Store(NewLogger(os.Stderr))
}

// NewLogger builds a text-handler slog.Logger writing to w that honours
// the package log level (see SetLevel).
func NewLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: &level}))
}

// Logger returns the package logger. The default logs to stderr at Info;
// Debug lines (per-build summaries) are silent unless SetLevel lowers
// the threshold (e.g. `pdcu build -verbose`).
func Logger() *slog.Logger { return current.Load() }

// SetLogger swaps the package logger; safe for concurrent use. Passing
// nil restores the stderr default.
func SetLogger(l *slog.Logger) {
	if l == nil {
		l = NewLogger(os.Stderr)
	}
	current.Store(l)
}

// SetLevel adjusts the threshold of every logger built with NewLogger,
// including the default.
func SetLevel(l slog.Level) { level.Set(l) }

// ParseLevel maps a -log-level flag value (debug, info, warn, error —
// case-insensitive) to its slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", s)
}
