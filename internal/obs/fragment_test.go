package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFragmentLogAppendRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "frags", "f.jsonl")
	l, err := OpenFragmentLog(path, "testproc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(SpanFragment{Trace: "t1", Span: "s1", Name: "a", Start: 10, End: 20}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(SpanFragment{Trace: "t2", Span: "s2", Name: "b", Start: 30, End: 40}); err != nil {
		t.Fatal(err)
	}
	all, err := ReadFragments(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].Proc != "testproc" {
		t.Fatalf("read all: %+v", all)
	}
	only, err := ReadFragments(path, "t2")
	if err != nil {
		t.Fatal(err)
	}
	if len(only) != 1 || only[0].Name != "b" {
		t.Fatalf("filter by trace: %+v", only)
	}
}

func TestReadFragmentsToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	good := `{"trace":"t","span":"s","name":"a","start":1,"end":2}` + "\n"
	if err := os.WriteFile(path, []byte(good+`{"trace":"t","sp`), 0o644); err != nil {
		t.Fatal(err)
	}
	frags, err := ReadFragments(path, "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 || frags[0].Name != "a" {
		t.Fatalf("torn tail not skipped: %+v", frags)
	}
}

func TestReadFragmentsMissingFile(t *testing.T) {
	frags, err := ReadFragments(filepath.Join(t.TempDir(), "absent.jsonl"), "")
	if err != nil || frags != nil {
		t.Fatalf("missing file: %v %v", frags, err)
	}
}

func TestNilFragmentLogIsNoOp(t *testing.T) {
	var l *FragmentLog
	if err := l.Append(SpanFragment{}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l.Path() != "" {
		t.Fatal("nil log has a path")
	}
}

func TestStartSpanRecordsChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.jsonl")
	l, err := OpenFragmentLog(path, "p")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	root := NewTrace()
	ctx := WithFragments(WithTraceContext(context.Background(), root), l)
	ctx2, end := StartSpan(ctx, "outer", map[string]string{"k": "v"})
	Instant(ctx2, "point", nil)
	end()
	end() // double close must not double-append
	frags, err := ReadFragments(path, root.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("want 2 fragments, got %+v", frags)
	}
	// Instant is recorded first (span closes after), parented to outer.
	var outer, point SpanFragment
	for _, fr := range frags {
		switch fr.Name {
		case "outer":
			outer = fr
		case "point":
			point = fr
		}
	}
	if outer.Parent != root.SpanID {
		t.Fatalf("outer parent = %q, want root span %q", outer.Parent, root.SpanID)
	}
	if point.Parent != outer.Span {
		t.Fatalf("instant parent = %q, want outer span %q", point.Parent, outer.Span)
	}
	if outer.Attrs["k"] != "v" || outer.End < outer.Start {
		t.Fatalf("outer fragment malformed: %+v", outer)
	}
	if point.Start != point.End {
		t.Fatalf("instant not zero-length: %+v", point)
	}
}

func TestStartSpanNoTraceIsNoOp(t *testing.T) {
	ctx, end := StartSpan(context.Background(), "x", nil)
	end()
	if _, ok := TraceContextFrom(ctx); ok {
		t.Fatal("span minted a trace from nothing")
	}
	// Unsampled context records nothing either.
	tc := NewTrace()
	tc.Sampled = false
	path := filepath.Join(t.TempDir(), "f.jsonl")
	l, _ := OpenFragmentLog(path, "p")
	defer l.Close()
	sctx := WithFragments(WithTraceContext(context.Background(), tc), l)
	_, end = StartSpan(sctx, "quiet", nil)
	end()
	Instant(sctx, "quiet2", nil)
	frags, _ := ReadFragments(path, "")
	if len(frags) != 0 {
		t.Fatalf("unsampled trace recorded: %+v", frags)
	}
}

func TestWriteTimelineAndSkew(t *testing.T) {
	base := time.Now().UnixNano()
	skew := 250 * time.Millisecond
	lanes := []Lane{
		{Name: "coord", Frags: []SpanFragment{
			{Trace: "t", Span: "a", Name: "sweep job-1", Start: base, End: base + int64(2*time.Second)},
			{Trace: "t", Span: "b", Parent: "a", Name: "lease cell-x", Start: base + 1000, End: base + int64(time.Second), Attrs: map[string]string{"lease": "l1"}},
			// In flight together with lease cell-x: overlaps it without nesting.
			{Trace: "t", Span: "e", Parent: "a", Name: "lease cell-y", Start: base + 3000, End: base + int64(1500*time.Millisecond)},
		}},
		{Name: "w0001", Skew: skew, Frags: []SpanFragment{
			{Trace: "t", Span: "c", Parent: "b", Name: "cell cell-x", Start: base + 2000 + int64(skew), End: base + int64(time.Second) + int64(skew)},
			{Trace: "t", Span: "d", Name: "memo hit", Start: base + 5000 + int64(skew), End: base + 5000 + int64(skew)},
		}},
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, lanes); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"process_name"`, `"coord"`, `"w0001"`, `"cell cell-x"`, `"ph":"X"`, `"ph":"i"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %s in %s", want, out)
		}
	}
	// Skew adjustment: the worker's cell span started 2µs after the
	// coordinator's lease span in true time; after adjustment its ts must
	// land near 1µs (lease started at +1000ns), far from the +250ms the
	// raw clock claims.
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			TS   float64 `json:"ts"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, ev := range doc.TraceEvents {
		tid[ev.Name] = ev.TID
		if ev.Name == "cell cell-x" && (ev.TS < 0 || ev.TS > 1000) {
			t.Fatalf("skew not removed: cell ts %v µs", ev.TS)
		}
	}
	// Tracks: partially overlapping spans of one lane get distinct tids,
	// so a viewer never draws them on one thread; a nested span shares
	// its parent's tid.
	if tid["lease cell-x"] == tid["lease cell-y"] {
		t.Errorf("overlapping leases share tid %d", tid["lease cell-x"])
	}
	if tid["lease cell-x"] != tid["sweep job-1"] {
		t.Errorf("nested lease on tid %d, its sweep on tid %d", tid["lease cell-x"], tid["sweep job-1"])
	}
	if _, err := CheckTimeline(buf.Bytes()); err != nil {
		t.Errorf("CheckTimeline: %v", err)
	}
}

func TestCheckTimeline(t *testing.T) {
	doc := func(events string) []byte {
		return []byte(`{"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0},` + events + `]}`)
	}
	good := doc(`{"name":"sweep","ph":"X","ts":0,"dur":10,"pid":0,"tid":0},` +
		`{"name":"cell a","ph":"X","ts":1,"dur":4,"pid":0,"tid":0},` +
		`{"name":"cell b","ph":"X","ts":2,"dur":9,"pid":0,"tid":1},` +
		`{"name":"hit","ph":"i","ts":3,"pid":0,"tid":0},` +
		`{"name":"cell c","ph":"X","ts":5,"dur":5,"pid":0,"tid":0}`)
	summary, err := CheckTimeline(good)
	if err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}
	if want := "4 spans (3 cell) across 1 lanes, timestamps monotone"; summary != want {
		t.Errorf("summary %q, want %q", summary, want)
	}
	for name, raw := range map[string][]byte{
		"not json":       []byte("{"),
		"no spans":       doc(`{"name":"hit","ph":"i","ts":3,"pid":0,"tid":0}`),
		"negative ts":    doc(`{"name":"a","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}`),
		"negative dur":   doc(`{"name":"a","ph":"X","ts":1,"dur":-1,"pid":0,"tid":0}`),
		"not monotone":   doc(`{"name":"a","ph":"X","ts":5,"dur":1,"pid":0,"tid":0},{"name":"b","ph":"X","ts":4,"dur":1,"pid":0,"tid":1}`),
		"overlap on tid": doc(`{"name":"a","ph":"X","ts":0,"dur":5,"pid":0,"tid":0},{"name":"b","ph":"X","ts":2,"dur":5,"pid":0,"tid":0}`),
	} {
		if _, err := CheckTimeline(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMemFragmentLogTimeline(t *testing.T) {
	l := NewMemFragmentLog("cli")
	ctx := WithFragments(WithTraceContext(context.Background(), NewTrace()), l)
	sctx, end := StartSpan(ctx, "cell xlisp/cps|SP|ET=8", map[string]string{"model": "SP"})
	time.Sleep(time.Millisecond)
	Instant(sctx, "retry", nil)
	end()
	frags := l.Fragments()
	if len(frags) != 2 || frags[0].Proc != "cli" {
		t.Fatalf("memory log holds %+v", frags)
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, []Lane{{Name: "deesim", Frags: frags}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 { // process_name, span, instant
		t.Fatalf("got %d events: %s", len(doc.TraceEvents), buf.String())
	}
	if span := doc.TraceEvents[1]; span.Ph != "X" || span.Dur <= 0 || span.Args["model"] != "SP" {
		t.Errorf("span event malformed: %+v", span)
	}
	if inst := doc.TraceEvents[2]; inst.Ph != "i" || inst.Name != "retry" {
		t.Errorf("instant event malformed: %+v", inst)
	}
	if l.Path() != "" || (*FragmentLog)(nil).Fragments() != nil {
		t.Error("memory log has a path, or a nil log has fragments")
	}
}

// TestMemFragmentLogConcurrent records spans from concurrent goroutines
// (run under -race) and checks that none are lost and that their
// rendered tracks still nest.
func TestMemFragmentLogConcurrent(t *testing.T) {
	l := NewMemFragmentLog("cli")
	ctx := WithFragments(WithTraceContext(context.Background(), NewTrace()), l)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sctx, end := StartSpan(ctx, "s", nil)
				_, endInner := StartSpan(sctx, "inner", nil)
				endInner()
				end()
			}
		}()
	}
	wg.Wait()
	frags := l.Fragments()
	if len(frags) != 8*200*2 {
		t.Fatalf("lost fragments: %d, want %d", len(frags), 8*200*2)
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, []Lane{{Name: "deesim", Frags: frags}}); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckTimeline(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSkew(t *testing.T) {
	ref := map[string]int64{"l1": 1000, "l2": 2000, "l3": 3000}
	remote := map[string]int64{"l1": 501000, "l2": 502500, "l3": 501500, "lX": 9}
	got := EstimateSkew(ref, remote)
	if got != 500*time.Microsecond {
		t.Fatalf("median skew = %v", got)
	}
	if EstimateSkew(ref, map[string]int64{"zz": 1}) != 0 {
		t.Fatal("no-pair skew should be 0")
	}
}
