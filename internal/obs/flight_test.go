package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFlightRecorderRingWraps(t *testing.T) {
	r := NewFlightRecorder(16)
	for i := 0; i < 40; i++ {
		r.Record("n", fmt.Sprintf("ev-%d", i), nil)
	}
	evs := r.Snapshot()
	if len(evs) != 16 {
		t.Fatalf("retained %d events, want 16", len(evs))
	}
	if evs[0].Msg != "ev-24" || evs[15].Msg != "ev-39" {
		t.Fatalf("order wrong: first %q last %q", evs[0].Msg, evs[15].Msg)
	}
}

func TestFlightDumpNamesOpenSpans(t *testing.T) {
	r := NewFlightRecorder(64)
	r.Record("span_open", "cell xlisp|DEE|ET=64", map[string]string{"span": "s1"})
	r.Record("span_open", "cell cps|TS|ET=8", map[string]string{"span": "s2"})
	r.Record("span_close", "cell cps|TS|ET=8", map[string]string{"span": "s2"})
	d := r.Dump("deesimd", "test")
	if len(d.OpenSpans) != 1 || d.OpenSpans[0] != "cell xlisp|DEE|ET=64" {
		t.Fatalf("open spans = %v", d.OpenSpans)
	}
	if d.Proc != "deesimd" || d.Reason != "test" || d.PID == 0 {
		t.Fatalf("dump header: %+v", d)
	}
}

func TestFlightWriteDumpAndPersist(t *testing.T) {
	r := NewFlightRecorder(16)
	r.Record("retry", "attempt 2", map[string]string{"cell": "k"})
	path := filepath.Join(t.TempDir(), "sub", "flight.json")
	if err := r.WriteDump(path, "p", "exit"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "exit" || len(d.Events) != 1 || d.Events[0].Kind != "retry" {
		t.Fatalf("dump content: %+v", d)
	}

	// Persist writes continuously until the context ends.
	ctx, cancel := context.WithCancel(context.Background())
	ppath := filepath.Join(t.TempDir(), "flight.json")
	done := make(chan struct{})
	go func() { r.Persist(ctx, ppath, "p", 5*time.Millisecond); close(done) }()
	r.Record("shed", "queue full", nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := os.Stat(ppath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("persist never wrote")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	<-done
	data, err = os.ReadFile(ppath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("queue full")) {
		t.Fatalf("persisted dump missing event: %s", data)
	}
}

func TestWarnLogsTeeIntoFlight(t *testing.T) {
	before := Flight.Seq()
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelInfo, false)
	ctx := WithIDs(context.Background(), slog.String("job", "job-42"))
	l.InfoContext(ctx, "calm")
	l.WarnContext(ctx, "trouble", slog.String("what", "disk"))
	evs := Flight.Snapshot()
	if Flight.Seq() != before+1 {
		t.Fatalf("flight grew by %d, want 1 (warn only)", Flight.Seq()-before)
	}
	last := evs[len(evs)-1]
	if last.Kind != "log" || last.Msg != "trouble" {
		t.Fatalf("teed event: %+v", last)
	}
	if last.Attrs["job"] != "job-42" || last.Attrs["what"] != "disk" {
		t.Fatalf("teed attrs missing IDs: %+v", last.Attrs)
	}
}

// TestTeeIgnoresOutputLevel: a warning reaches the flight recorder
// once whatever the logger writes — through Discard, and through a
// logger whose level keeps it off the output.
func TestTeeIgnoresOutputLevel(t *testing.T) {
	var buf bytes.Buffer
	for name, l := range map[string]*slog.Logger{
		"discard":     Discard,
		"error level": NewLogger(&buf, slog.LevelError, true),
	} {
		before := Flight.Seq()
		l.Info("calm")
		l.Warn("trouble", slog.String("via", name))
		if got := Flight.Seq() - before; got != 1 {
			t.Fatalf("%s: flight grew by %d, want 1", name, got)
		}
		evs := Flight.Snapshot()
		if last := evs[len(evs)-1]; last.Msg != "trouble" || last.Attrs["via"] != name || last.Attrs["level"] != "WARN" {
			t.Errorf("%s: teed event %+v", name, last)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("warning written past an error-level logger: %s", buf.String())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *FlightRecorder
	r.Record("x", "y", nil)
	if r.Snapshot() != nil {
		t.Fatal("nil snapshot")
	}
	if err := r.WriteDump("", "p", "r"); err != nil {
		t.Fatal(err)
	}
}
