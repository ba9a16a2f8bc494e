package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Structured logging: every layer logs through log/slog, and the
// correlation IDs a log line needs — job or sweep, cell, trace — travel
// in the context, not in call signatures. ctxHandler lifts them out of
// the context into attributes at emit time, so a deep callee (a retrying
// cell inside a journaled sweep inside a daemon job) logs lines that
// carry the whole chain without any layer knowing about the others.

// ctxKey is the private context-key namespace for log attributes.
type ctxKey int

const (
	keyIDs ctxKey = iota // []slog.Attr accumulated by WithIDs
)

// WithCellKey returns ctx carrying cell=key.
func WithCellKey(ctx context.Context, key string) context.Context {
	return WithIDs(ctx, slog.String("cell", key))
}

// WithIDs returns ctx carrying additional attributes appended to every
// log line emitted with it through a logger built by NewLogger.
func WithIDs(ctx context.Context, attrs ...slog.Attr) context.Context {
	prev, _ := ctx.Value(keyIDs).([]slog.Attr)
	merged := make([]slog.Attr, 0, len(prev)+len(attrs))
	merged = append(merged, prev...)
	merged = append(merged, attrs...)
	return context.WithValue(ctx, keyIDs, merged)
}

// IDs returns the attributes accumulated on ctx by WithIDs (nil when
// none).
func IDs(ctx context.Context) []slog.Attr {
	attrs, _ := ctx.Value(keyIDs).([]slog.Attr)
	return attrs
}

// ctxHandler decorates a slog.Handler with the context attributes.
type ctxHandler struct {
	slog.Handler
}

// Enabled admits every warning and error whatever the output level, so
// the flight-recorder tee in Handle sees them even when -log-level (or
// Discard) keeps them off the output.
func (h ctxHandler) Enabled(ctx context.Context, level slog.Level) bool {
	return level >= slog.LevelWarn || h.Handler.Enabled(ctx, level)
}

func (h ctxHandler) Handle(ctx context.Context, rec slog.Record) error {
	if attrs := IDs(ctx); len(attrs) > 0 {
		rec = rec.Clone()
		rec.AddAttrs(attrs...)
	}
	// Tee warnings and errors into the flight recorder: the black box
	// keeps the recent trouble even when stderr is long gone.
	if rec.Level >= slog.LevelWarn {
		attrs := map[string]string{"level": rec.Level.String()}
		rec.Attrs(func(a slog.Attr) bool {
			attrs[a.Key] = a.Value.String()
			return true
		})
		Flight.Record("log", rec.Message, attrs)
	}
	if !h.Handler.Enabled(ctx, rec.Level) {
		return nil
	}
	return h.Handler.Handle(ctx, rec)
}

func (h ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{h.Handler.WithAttrs(attrs)}
}

func (h ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{h.Handler.WithGroup(name)}
}

// ParseLevel maps a -log-level flag value to a slog.Level. Accepted:
// debug, info, warn, error (case-insensitive).
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
	return 0, fmt.Errorf("unknown log level %q (have: debug, info, warn, error)", s)
}

// NewLogger builds the repo-standard logger: text or JSON lines on w at
// the given level, with context IDs (WithIDs, WithCellKey, WithTraceContext) appended to
// every record.
func NewLogger(w io.Writer, level slog.Level, jsonOut bool) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if jsonOut {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	return slog.New(ctxHandler{h})
}

// Discard is the logger for library code handed none: it writes
// nothing, but warnings and errors still reach the flight recorder, so
// an event logged once is in the black box whoever built the logger.
var Discard = slog.New(ctxHandler{discardHandler{}})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
