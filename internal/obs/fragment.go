package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span fragments are the one span record: StartSpan and Instant turn
// every span a process observes (submit, queue wait, lease, build,
// cell run, merge) into a SpanFragment tagged with the process
// identity, and append it to the context's FragmentLog. The log has
// two sinks. Daemons open a file log: a per-process JSONL fragment
// file, fsync'd per record, which the coordinator's /v1/trace/<sweep>
// endpoint later gathers from the fleet and merges into one timeline
// (timeline.go). One-shot CLI runs use a memory log and render its
// fragments with the same WriteTimeline on exit. Fragments
// deliberately carry raw wall-clock nanoseconds from their own
// process's clock; cross-machine skew is corrected at merge time
// against the coordinator's lease timestamps, not at record time.

// SpanFragment is one recorded span (or instant, when End == Start).
type SpanFragment struct {
	Trace  string            `json:"trace"`
	Span   string            `json:"span"`
	Parent string            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Proc   string            `json:"proc,omitempty"`
	Start  int64             `json:"start"` // unix nanos, recorder's clock
	End    int64             `json:"end"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// FragmentLog is the sink span fragments are appended to: durably to
// one JSONL file (OpenFragmentLog), or to a buffer in memory
// (NewMemFragmentLog). All methods are nil-receiver safe no-ops, so
// callers thread a possibly absent log without guards.
type FragmentLog struct {
	mu    sync.Mutex
	f     *os.File // file sink; nil for a memory log and once closed
	path  string
	proc  string
	mem   bool
	frags []SpanFragment // memory sink
}

// NewMemFragmentLog returns a log that buffers fragments in memory;
// proc names the recording process in every fragment.
func NewMemFragmentLog(proc string) *FragmentLog {
	return &FragmentLog{proc: proc, mem: true}
}

// Fragments returns a copy of the fragments a memory log has buffered
// (nil for a file log).
func (l *FragmentLog) Fragments() []SpanFragment {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]SpanFragment(nil), l.frags...)
}

// OpenFragmentLog opens (creating if needed) the fragment file at
// path; proc names the recording process in every fragment.
func OpenFragmentLog(path, proc string) (*FragmentLog, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &FragmentLog{f: f, path: path, proc: proc}, nil
}

// Path returns the fragment file's path ("" for a nil log).
func (l *FragmentLog) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append records one fragment: a memory log buffers it, a file log
// writes it durably (write + fsync under the lock).
func (l *FragmentLog) Append(fr SpanFragment) error {
	if l == nil {
		return nil
	}
	if fr.Proc == "" {
		fr.Proc = l.proc
	}
	if l.mem {
		l.mu.Lock()
		l.frags = append(l.frags, fr)
		l.mu.Unlock()
		return nil
	}
	line, err := json.Marshal(fr)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	return l.f.Sync()
}

// Close closes a file log's file; its later Appends become no-ops.
// Closing a memory log does nothing.
func (l *FragmentLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ReadFragments parses the fragment file at path, keeping fragments
// whose trace matches traceID ("" keeps all). A torn final line (the
// process died mid-append) is tolerated and skipped, like journal
// replay.
func ReadFragments(path, traceID string) ([]SpanFragment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SpanFragment
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var fr SpanFragment
		if err := json.Unmarshal(line, &fr); err != nil {
			continue // torn tail or scribble: skip, never fail the fetch
		}
		if traceID == "" || fr.Trace == traceID {
			out = append(out, fr)
		}
	}
	return out, nil
}

// WithFragments returns ctx carrying the fragment log for StartSpan
// and Instant to record into.
func WithFragments(ctx context.Context, l *FragmentLog) context.Context {
	return context.WithValue(ctx, keyFrags, l)
}

// FragmentsFrom returns the fragment log on ctx (nil when absent).
func FragmentsFrom(ctx context.Context) *FragmentLog {
	l, _ := ctx.Value(keyFrags).(*FragmentLog)
	return l
}

// StartSpan opens a span under the context's trace: the returned
// context carries a fresh child span ID (so further HTTP hops and
// sub-spans chain correctly), and the closer appends the finished
// fragment to the context's FragmentLog. Without a sampled trace
// context this is a no-op that returns ctx unchanged. Span open and
// close also feed the flight recorder, so a crash dump names the
// spans that never closed.
func StartSpan(ctx context.Context, name string, attrs map[string]string) (context.Context, func()) {
	tc, ok := TraceContextFrom(ctx)
	if !ok || !tc.Sampled {
		return ctx, func() {}
	}
	child := tc.Child()
	ctx = WithTraceContext(ctx, child)
	start := time.Now()
	Flight.Record("span_open", name, map[string]string{"trace": child.TraceID, "span": child.SpanID})
	frags := FragmentsFrom(ctx)
	var once sync.Once
	return ctx, func() {
		once.Do(func() {
			Flight.Record("span_close", name, map[string]string{"trace": child.TraceID, "span": child.SpanID})
			_ = frags.Append(SpanFragment{
				Trace:  child.TraceID,
				Span:   child.SpanID,
				Parent: tc.SpanID,
				Name:   name,
				Start:  start.UnixNano(),
				End:    time.Now().UnixNano(),
				Attrs:  attrs,
			})
		})
	}
}

// Instant records a zero-duration fragment (a point event such as a
// memo hit) under the context's trace. No-op without a sampled trace.
func Instant(ctx context.Context, name string, attrs map[string]string) {
	tc, ok := TraceContextFrom(ctx)
	if !ok || !tc.Sampled {
		return
	}
	now := time.Now().UnixNano()
	_ = FragmentsFrom(ctx).Append(SpanFragment{
		Trace:  tc.TraceID,
		Span:   tc.Child().SpanID,
		Parent: tc.SpanID,
		Name:   name,
		Start:  now,
		End:    now,
		Attrs:  attrs,
	})
}
