package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
)

// Distributed trace context, W3C trace-context style: a 128-bit trace
// ID minted once at submission, a 64-bit span ID naming the current
// operation, and a sampling bit. The context travels two ways: inside
// a process it rides context.Context (WithTraceContext /
// TraceContextFrom); between processes it rides the "traceparent"
// HTTP header ("00-<trace>-<span>-<flags>"), injected by
// internal/client on every request and extracted by the deesimd and
// deesim-coord HTTP middleware. Span fragments recorded under a trace
// (see fragment.go) key on the trace ID, so `deesimctl trace fetch`
// can reassemble one sweep's timeline across the whole fleet.

// TraceparentHeader is the HTTP header carrying a TraceContext between
// processes, named after the W3C trace-context header it mimics.
const TraceparentHeader = "traceparent"

// TraceContext identifies the current operation within a distributed
// trace. The zero value is "no trace".
type TraceContext struct {
	// TraceID is 32 lowercase hex characters shared by every span of
	// one submitted sweep.
	TraceID string
	// SpanID is 16 lowercase hex characters naming the current span;
	// children cite it as their parent.
	SpanID string
	// Sampled marks the trace as recorded. Unsampled contexts (e.g.
	// heartbeats) still propagate for log correlation but record no
	// fragments.
	Sampled bool
}

// NewTrace mints a fresh sampled root context with random IDs.
func NewTrace() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Sampled: true}
}

// Valid reports whether tc carries well-formed IDs.
func (tc TraceContext) Valid() bool {
	return isHex(tc.TraceID, 32) && isHex(tc.SpanID, 16)
}

// Child returns a context for a new span under tc: same trace, fresh
// span ID. The parent relationship is recorded by the span fragment,
// not the context.
func (tc TraceContext) Child() TraceContext {
	tc.SpanID = randHex(8)
	return tc
}

// Traceparent renders the wire form "00-<trace>-<span>-<flags>".
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return fmt.Sprintf("00-%s-%s-%s", tc.TraceID, tc.SpanID, flags)
}

// ParseTraceparent decodes the wire form. It accepts any version
// field, requires well-formed IDs, rejects the all-zero IDs the W3C
// spec reserves as invalid, and reads the flags as a bit field whose
// bit 0 is "sampled".
func ParseTraceparent(s string) (TraceContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || !isHex(parts[0], 2) {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: strings.ToLower(parts[1]), SpanID: strings.ToLower(parts[2])}
	if !tc.Valid() || !isHex(parts[3], 2) {
		return TraceContext{}, false
	}
	if tc.TraceID == strings.Repeat("0", 32) || tc.SpanID == strings.Repeat("0", 16) {
		return TraceContext{}, false
	}
	flags, _ := strconv.ParseUint(parts[3], 16, 8)
	tc.Sampled = flags&1 == 1 // bit 0; other bits (e.g. random-trace-id) are ignored
	return tc, true
}

const (
	keyTraceCtx ctxKey = iota + 100 // TraceContext carried by WithTraceContext
	keyFrags                        // *FragmentLog carried by WithFragments
)

// WithTraceContext returns ctx carrying tc; it also stamps the trace
// ID as a log correlation ID so every line under it joins the trace.
func WithTraceContext(ctx context.Context, tc TraceContext) context.Context {
	ctx = context.WithValue(ctx, keyTraceCtx, tc)
	return WithIDs(ctx, slog.String("trace_id", tc.TraceID))
}

// TraceContextFrom returns the trace context on ctx, if any.
func TraceContextFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(keyTraceCtx).(TraceContext)
	return tc, ok && tc.Valid()
}

func randHex(nbytes int) string {
	b := make([]byte, nbytes)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand on a healthy kernel does not fail; if it somehow
		// does, a zero ID (treated as invalid) is safer than a panic in
		// telemetry code.
		return strings.Repeat("0", nbytes*2)
	}
	return hex.EncodeToString(b)
}

func isHex(s string, n int) bool {
	if len(s) != n {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}
