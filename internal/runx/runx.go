// Package runx is the hardened simulation runtime shared by every
// long-running loop in the reproduction (the ILP limit simulator, the
// Levo machine model, the functional CPU, and the experiment sweeps).
// It provides:
//
//   - a typed *Error carrying failure kind plus stage / model /
//     benchmark / resource-level / cycle attribution, so a failed run in
//     a large sweep can be located without re-running it;
//   - panic isolation: FromPanic converts a recovered panic at a public
//     entry point into a structured error with the stack attached;
//   - cooperative cancellation: CtxErr classifies a context failure and
//     Ticker rate-limits context checks so hot cycle loops pay ~one
//     branch per iteration;
//   - a progress Watchdog that turns stalls (cycles with no forward
//     progress) into structured deadlock errors, and Snapshot, a
//     cycle/progress/heap capture attached to those errors.
//
// The contract the simulators uphold with these pieces: every public
// call either returns a correct result or a typed *Error — it never
// panics across a package boundary and never spins forever.
package runx

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
)

// Kind classifies a runtime failure.
type Kind int

const (
	// KindUnknown is an unclassified failure.
	KindUnknown Kind = iota
	// KindCanceled: the run's context was canceled (SIGINT/SIGTERM or a
	// programmatic cancel).
	KindCanceled
	// KindDeadline: the run exceeded its wall-clock deadline.
	KindDeadline
	// KindDeadlock: the progress watchdog saw no forward progress for
	// longer than the configured limit.
	KindDeadlock
	// KindPanic: a panic was recovered at a public entry point.
	KindPanic
	// KindInvalidInput: a configuration or input (trace, cache geometry)
	// failed validation.
	KindInvalidInput
	// KindCorrupt: a persisted artifact (run journal, checkpoint, golden
	// baseline) failed integrity checks beyond the recoverable torn tail.
	KindCorrupt
	// KindRegression: a reproduced result drifted from its golden
	// baseline beyond the configured tolerance.
	KindRegression
	// KindOverload: a service shed the request because its admission
	// queue was full (HTTP 429). Retry after backing off.
	KindOverload
	// KindUnavailable: a service (or the network path to it) could not
	// take the request at all — connection refused/reset, a 5xx, or a
	// draining daemon (HTTP 503). Transient by definition.
	KindUnavailable
)

// KindTimeout is the SLO-layer name for KindDeadline: a sweep that
// blew past its absolute deadline is journaled, surfaced, and
// exit-coded as this kind. It is an alias, not a distinct value, so
// the wire format (Kind.String / KindFromString), retry
// classification, and HTTP mapping all stay unchanged — an old client
// sees the same "deadline exceeded" error body it always has.
const KindTimeout = KindDeadline

func (k Kind) String() string {
	switch k {
	case KindCanceled:
		return "canceled"
	case KindDeadline:
		return "deadline exceeded"
	case KindDeadlock:
		return "deadlock"
	case KindPanic:
		return "panic"
	case KindInvalidInput:
		return "invalid input"
	case KindCorrupt:
		return "corrupt artifact"
	case KindRegression:
		return "golden regression"
	case KindOverload:
		return "overload"
	case KindUnavailable:
		return "unavailable"
	}
	return "error"
}

// KindFromString is the inverse of Kind.String: it recognizes every
// kind's canonical name (the server puts that name in JSON error
// bodies, and the client reconstructs the kind from it). Unrecognized
// names come back as KindUnknown.
func KindFromString(s string) Kind {
	for k := KindCanceled; k <= KindUnavailable; k++ {
		if k.String() == s {
			return k
		}
	}
	return KindUnknown
}

// Retryable reports whether a failure of this kind may succeed on a
// fresh attempt of the same task. Deadlines, deadlocks, and recovered
// panics are retryable: they can stem from transient load, scheduling,
// or environment effects. Overload (a shed request) and unavailability
// (a refused connection, a 5xx, a draining daemon) are the transient
// service-side analogues. Cancellation (the operator asked us to
// stop), invalid input, corruption, golden regressions, and
// unclassified errors — which include invariant-audit violations — are
// deterministic verdicts about the run itself and must never be
// retried.
func (k Kind) Retryable() bool {
	switch k {
	case KindDeadline, KindDeadlock, KindPanic, KindOverload, KindUnavailable:
		return true
	}
	return false
}

// Retryable reports whether err carries a *Error whose kind is
// retryable. Non-structured errors are not retryable: an error we
// cannot classify (for example an invariant violation out of the audit
// suite) would fail identically on every attempt.
func Retryable(err error) bool {
	e, ok := As(err)
	return ok && e.Kind.Retryable()
}

// Snapshot captures where a simulation was when it failed: the cycle
// count, a monotone progress indicator against its total, how long the
// run had been idle, and process heap/goroutine state.
type Snapshot struct {
	Cycle        int64
	Progress     int64 // e.g. window root path, head instruction
	Total        int64 // e.g. total paths, total instructions
	Idle         int64 // consecutive cycles without progress
	HeapAlloc    uint64
	NumGoroutine int
}

// TakeSnapshot fills a Snapshot with the given simulation coordinates
// plus current heap and goroutine statistics.
func TakeSnapshot(cycle, progress, total, idle int64) *Snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Snapshot{
		Cycle: cycle, Progress: progress, Total: total, Idle: idle,
		HeapAlloc: ms.HeapAlloc, NumGoroutine: runtime.NumGoroutine(),
	}
}

func (s *Snapshot) String() string {
	return fmt.Sprintf("cycle %d, progress %d/%d, idle %d, heap %.1f MiB, %d goroutines",
		s.Cycle, s.Progress, s.Total, s.Idle,
		float64(s.HeapAlloc)/(1<<20), s.NumGoroutine)
}

// Error is the structured failure type every hardened entry point
// returns. Zero-valued attribution fields are omitted from the message.
type Error struct {
	Kind      Kind
	Stage     string // entry point, e.g. "ilpsim.Run"
	Model     string // simulation model, e.g. "DEE-CD-MF"
	Benchmark string // workload/input, e.g. "xlisp/queens"
	ET        int    // branch-path resource level
	Cycle     int64  // simulated cycle at failure
	Snap      *Snapshot
	Stack     []byte // goroutine stack for KindPanic
	Err       error  // underlying cause
}

func (e *Error) Error() string {
	var b strings.Builder
	if e.Stage != "" {
		b.WriteString(e.Stage)
		b.WriteString(": ")
	}
	b.WriteString(e.Kind.String())
	var attrs []string
	if e.Model != "" {
		attrs = append(attrs, "model "+e.Model)
	}
	if e.ET != 0 {
		attrs = append(attrs, fmt.Sprintf("ET=%d", e.ET))
	}
	if e.Benchmark != "" {
		attrs = append(attrs, "benchmark "+e.Benchmark)
	}
	if e.Cycle != 0 {
		attrs = append(attrs, fmt.Sprintf("cycle %d", e.Cycle))
	}
	if len(attrs) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(attrs, ", "))
	}
	if e.Err != nil {
		b.WriteString(": ")
		b.WriteString(e.Err.Error())
	}
	if e.Snap != nil {
		fmt.Fprintf(&b, " (%s)", e.Snap)
	}
	return b.String()
}

func (e *Error) Unwrap() error { return e.Err }

// Newf builds an *Error with a formatted cause.
func Newf(kind Kind, stage, format string, args ...any) *Error {
	return &Error{Kind: kind, Stage: stage, Err: fmt.Errorf(format, args...)}
}

// FromPanic converts a value recovered from panic() at the entry point
// named stage into a structured error with the stack attached. Callers
// invoke recover() themselves (it only works directly inside a deferred
// function) and pass the result:
//
//	defer func() {
//		if r := recover(); r != nil {
//			err = runx.FromPanic(r, "ilpsim.Run")
//		}
//	}()
func FromPanic(r any, stage string) *Error {
	cause, ok := r.(error)
	if !ok {
		cause = fmt.Errorf("%v", r)
	}
	return &Error{Kind: KindPanic, Stage: stage, Err: fmt.Errorf("panic: %w", cause), Stack: debug.Stack()}
}

// CtxErr classifies ctx's failure, or returns nil if the context is
// still live. The returned error unwraps to context.Canceled or
// context.DeadlineExceeded, so errors.Is keeps working.
func CtxErr(ctx context.Context, stage string) *Error {
	err := ctx.Err()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return &Error{Kind: KindDeadline, Stage: stage, Err: err}
	default:
		return &Error{Kind: KindCanceled, Stage: stage, Err: err}
	}
}

// As extracts a *Error from an error chain.
func As(err error) (*Error, bool) {
	var e *Error
	ok := errors.As(err, &e)
	return e, ok
}

// IsKind reports whether err carries a *Error of the given kind.
func IsKind(err error, k Kind) bool {
	e, ok := As(err)
	return ok && e.Kind == k
}

// Annotate fills empty attribution fields of a *Error in err's chain
// (benchmark name, and model/ET when non-zero) and returns err. A
// non-structured error is wrapped with the benchmark name instead, so
// attribution is never silently dropped.
func Annotate(err error, benchmark string) error {
	if err == nil {
		return nil
	}
	if e, ok := As(err); ok {
		if e.Benchmark == "" {
			e.Benchmark = benchmark
		}
		return err
	}
	return fmt.Errorf("%s: %w", benchmark, err)
}

// Ticker rate-limits context checks inside hot loops: Check consults the
// context on the first call and then every Nth, so the common case
// costs one increment and one compare, and a loop started under a dead
// context stops at its first step whatever it counts in.
type Ticker struct {
	every uint32
	n     uint32
}

// NewTicker returns a Ticker that checks the context every `every`
// calls (minimum 1).
func NewTicker(every uint32) Ticker {
	if every == 0 {
		every = 1
	}
	return Ticker{every: every, n: every - 1}
}

// Check returns a structured cancellation/deadline error once the
// context has failed, or nil. Only every Nth call actually looks at the
// context.
func (t *Ticker) Check(ctx context.Context, stage string) *Error {
	t.n++
	if t.n < t.every {
		return nil
	}
	t.n = 0
	return CtxErr(ctx, stage)
}

// Watchdog tracks forward progress in a cycle loop and trips when the
// run has been idle — no progress — for more than limit consecutive
// steps.
type Watchdog struct {
	limit int64
	idle  int64
}

// NewWatchdog returns a watchdog that trips after limit consecutive
// idle steps (limit <= 0 disables it).
func NewWatchdog(limit int64) Watchdog {
	return Watchdog{limit: limit}
}

// Step records one loop iteration and reports whether the watchdog has
// tripped.
func (w *Watchdog) Step(progressed bool) bool {
	if progressed {
		w.idle = 0
		return false
	}
	w.idle++
	return w.limit > 0 && w.idle > w.limit
}

// StepN records n consecutive idle steps at once — cycle-skipping
// schedulers use it to account for simulated-time jumps over idle
// stretches — and reports whether the watchdog has tripped. n <= 0 is a
// no-op.
func (w *Watchdog) StepN(n int64) bool {
	if n <= 0 {
		return false
	}
	w.idle += n
	return w.limit > 0 && w.idle > w.limit
}

// Idle reports the current run of consecutive idle steps.
func (w *Watchdog) Idle() int64 { return w.idle }
