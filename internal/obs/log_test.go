package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

func TestContextIDsReachLogLines(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelInfo, true)
	ctx := WithIDs(context.Background(), slog.String("job", "j000001"))
	ctx = WithCellKey(ctx, "xlisp/cps|SP|ET=8")
	l.InfoContext(ctx, "cell done", "speedup", 3.5)

	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, b.String())
	}
	for k, want := range map[string]string{
		"job":  "j000001",
		"cell": "xlisp/cps|SP|ET=8",
		"msg":  "cell done",
	} {
		if rec[k] != want {
			t.Errorf("log line %s = %v, want %q (line: %s)", k, rec[k], want, b.String())
		}
	}
	if rec["speedup"] != 3.5 {
		t.Errorf("explicit attr lost: %v", rec["speedup"])
	}
}

func TestTextLoggerAndLevelGate(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelWarn, false)
	ctx := WithIDs(context.Background(), slog.String("job", "j9"))
	l.InfoContext(ctx, "dropped")
	l.WarnContext(ctx, "kept")
	out := b.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("info line leaked past warn level: %s", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "job=j9") {
		t.Errorf("warn line missing content: %s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud) should fail")
	}
}

func TestDiscardLogger(t *testing.T) {
	// Must not panic on any derivation.
	Discard.Info("nothing", "k", "v")
	Discard.With("a", 1).WithGroup("g").Error("still nothing")
}

func TestVersionInfo(t *testing.T) {
	v := Version()
	if v.GoVersion == "" {
		t.Error("GoVersion empty")
	}
	if s := v.String(); s == "" || !strings.Contains(s, v.GoVersion) {
		t.Errorf("String() = %q", s)
	}
	var b strings.Builder
	PrintVersion(&b, "deesim")
	if !strings.HasPrefix(b.String(), "deesim version ") {
		t.Errorf("PrintVersion output %q", b.String())
	}
}
