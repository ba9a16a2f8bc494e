package obs

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// The flight recorder is the process's always-on black box: a bounded
// lock-free ring of recent structured events — log records ≥ warn
// (teed in by the ctxHandler: retries, brownouts, lease expiries and
// every other logged fault), span open/close, and the shed and breaker
// decisions nothing logs — that every binary dumps to its state dir on
// panic, SIGQUIT, or nonzero structured exit. Daemons additionally
// persist a snapshot on a short cadence (Persist), so even a SIGKILL
// — which no handler can catch — leaves a dump on disk naming the
// spans that were open when the process died.

// FlightEvent is one recorded event.
type FlightEvent struct {
	TS    int64             `json:"ts"` // unix nanos
	Kind  string            `json:"kind"`
	Msg   string            `json:"msg"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder is a fixed-size lock-free ring of FlightEvents.
// Record never blocks and never allocates beyond the event itself;
// when the ring is full the oldest events are overwritten.
type FlightRecorder struct {
	slots []atomic.Pointer[FlightEvent]
	seq   atomic.Uint64
	mask  uint64
}

// Flight is the process-wide recorder every hook feeds.
var Flight = NewFlightRecorder(1024)

// NewFlightRecorder builds a recorder holding n events (rounded up to
// a power of two, minimum 16).
func NewFlightRecorder(n int) *FlightRecorder {
	size := 16
	for size < n {
		size <<= 1
	}
	return &FlightRecorder{slots: make([]atomic.Pointer[FlightEvent], size), mask: uint64(size - 1)}
}

// Record appends one event to the ring.
func (r *FlightRecorder) Record(kind, msg string, attrs map[string]string) {
	if r == nil {
		return
	}
	ev := &FlightEvent{TS: time.Now().UnixNano(), Kind: kind, Msg: msg, Attrs: attrs}
	idx := r.seq.Add(1) - 1
	r.slots[idx&r.mask].Store(ev)
}

// Seq returns the number of events ever recorded (used by Persist to
// skip writes when nothing changed).
func (r *FlightRecorder) Seq() uint64 { return r.seq.Load() }

// Snapshot returns the retained events, oldest first. Concurrent
// writers may overwrite slots mid-read; each event pointer is loaded
// atomically, so every returned event is internally consistent.
func (r *FlightRecorder) Snapshot() []FlightEvent {
	if r == nil {
		return nil
	}
	seq := r.seq.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if seq > n {
		start = seq - n
	}
	out := make([]FlightEvent, 0, seq-start)
	for i := start; i < seq; i++ {
		if ev := r.slots[i&r.mask].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	return out
}

// FlightDump is the on-disk dump format: process identity, the dump
// reason, the names of spans opened but never closed (for a worker,
// its in-flight cells), and the retained events.
type FlightDump struct {
	Proc      string        `json:"proc"`
	PID       int           `json:"pid"`
	Reason    string        `json:"reason"`
	DumpedAt  string        `json:"dumped_at"`
	OpenSpans []string      `json:"open_spans,omitempty"`
	Events    []FlightEvent `json:"events"`
}

// Dump assembles a FlightDump from the current ring contents.
func (r *FlightRecorder) Dump(proc, reason string) FlightDump {
	events := r.Snapshot()
	open := map[string]string{} // span id -> name
	for _, ev := range events {
		switch ev.Kind {
		case "span_open":
			open[ev.Attrs["span"]] = ev.Msg
		case "span_close":
			delete(open, ev.Attrs["span"])
		}
	}
	var openNames []string
	for _, name := range open {
		openNames = append(openNames, name)
	}
	return FlightDump{
		Proc:      proc,
		PID:       os.Getpid(),
		Reason:    reason,
		DumpedAt:  time.Now().UTC().Format(time.RFC3339Nano),
		OpenSpans: openNames,
		Events:    events,
	}
}

// WriteDump writes the dump as JSON to path via write-temp-and-rename.
// It deliberately uses the plain os package — the dump path runs
// during panics and signal handlers, where injected filesystems and
// their fault schedules must not get in the way.
func (r *FlightRecorder) WriteDump(path, proc, reason string) error {
	if r == nil || path == "" {
		return nil
	}
	data, err := json.MarshalIndent(r.Dump(proc, reason), "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// Persist rewrites path with a fresh dump every interval until ctx is
// done, skipping writes when nothing new was recorded. This is what
// makes the black box survive SIGKILL: the last periodic snapshot is
// the dump.
func (r *FlightRecorder) Persist(ctx context.Context, path, proc string, every time.Duration) {
	if r == nil || path == "" {
		return
	}
	if every <= 0 {
		every = 500 * time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	var last uint64
	for {
		select {
		case <-ctx.Done():
			_ = r.WriteDump(path, proc, "shutdown")
			return
		case <-t.C:
			if seq := r.Seq(); seq != last {
				last = seq
				_ = r.WriteDump(path, proc, "periodic")
			}
		}
	}
}

// RecordFlight records one event on the process-wide recorder — for
// events that are not logged, such as shed and breaker decisions. A
// logged Warn+ event reaches the recorder through the log tee instead.
func RecordFlight(kind, msg string, attrs map[string]string) {
	Flight.Record(kind, msg, attrs)
}
