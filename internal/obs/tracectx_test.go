package obs

import (
	"context"
	"strings"
	"testing"
)

func TestNewTraceValidAndDistinct(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	if !a.Valid() || !b.Valid() {
		t.Fatalf("minted contexts invalid: %+v %+v", a, b)
	}
	if !a.Sampled {
		t.Fatal("minted context not sampled")
	}
	if a.TraceID == b.TraceID || a.SpanID == b.SpanID {
		t.Fatalf("two mints collided: %+v %+v", a, b)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tc := NewTrace()
	got, ok := ParseTraceparent(tc.Traceparent())
	if !ok || got != tc {
		t.Fatalf("round trip: %+v -> %q -> %+v (ok=%v)", tc, tc.Traceparent(), got, ok)
	}
	tc.Sampled = false
	got, ok = ParseTraceparent(tc.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled flag lost: %q -> %+v", tc.Traceparent(), got)
	}
	// The flags are a bit field: bit 0 is "sampled", other bits (03 =
	// sampled + random trace id) do not unset it.
	for _, c := range []struct {
		flags   string
		sampled bool
	}{{"00", false}, {"01", true}, {"02", false}, {"03", true}, {"FF", true}} {
		h := "00-" + tc.TraceID + "-" + tc.SpanID + "-" + c.flags
		got, ok := ParseTraceparent(h)
		if !ok || got.Sampled != c.sampled {
			t.Errorf("ParseTraceparent(%q) = %+v (ok=%v), want sampled=%v", h, got, ok, c.sampled)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"garbage",
		"00-short-span-01",
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace id
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		"00-" + strings.Repeat("g", 32) + "-" + strings.Repeat("a", 16) + "-01", // non-hex
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16),         // missing flags
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-0g", // non-hex flags
		"00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("a", 16) + "-1",  // short flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("ParseTraceparent(%q) accepted", s)
		}
	}
}

// FuzzParseTraceparent feeds arbitrary header values to the parser —
// the header is outside input on every daemon. It must never panic,
// and every context it accepts must survive a round trip through its
// own wire form.
func FuzzParseTraceparent(f *testing.F) {
	f.Add(NewTrace().Traceparent())
	f.Add("00-" + strings.Repeat("a", 32) + "-" + strings.Repeat("b", 16) + "-03")
	f.Add("ff-" + strings.Repeat("A", 32) + "-" + strings.Repeat("1", 16) + "-02 ")
	f.Add("00-short-span-01")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		tc, ok := ParseTraceparent(s)
		if !ok {
			return
		}
		if !tc.Valid() {
			t.Fatalf("accepted invalid context %+v from %q", tc, s)
		}
		got, ok := ParseTraceparent(tc.Traceparent())
		if !ok || got != tc {
			t.Fatalf("%q -> %+v -> %q -> %+v (ok=%v)", s, tc, tc.Traceparent(), got, ok)
		}
	})
}

func TestChildKeepsTraceFreshSpan(t *testing.T) {
	tc := NewTrace()
	ch := tc.Child()
	if ch.TraceID != tc.TraceID {
		t.Fatal("child changed trace id")
	}
	if ch.SpanID == tc.SpanID {
		t.Fatal("child kept parent span id")
	}
}

func TestTraceContextOnContext(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := NewTrace()
	ctx = WithTraceContext(ctx, tc)
	got, ok := TraceContextFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("context round trip: %+v (ok=%v)", got, ok)
	}
	// The trace ID must also ride the log-correlation IDs.
	found := false
	for _, a := range IDs(ctx) {
		if a.Key == "trace_id" && a.Value.String() == tc.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatal("trace_id missing from context log IDs")
	}
}
