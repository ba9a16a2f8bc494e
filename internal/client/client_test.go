package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"deesim/internal/faultinject"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

// quiet builds a client against url with no real sleeping: the snooze
// seam records requested delays and returns immediately.
func quiet(url string) (*Client, *[]time.Duration) {
	var delays []time.Duration
	c := New(url)
	c.Retry = superv.RetryPolicy{Attempts: 4, Backoff: 10 * time.Millisecond, Seed: 7}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		delays = append(delays, d)
		if err := runx.CtxErr(ctx, "test"); err != nil {
			return err
		}
		return nil
	}
	return c, &delays
}

func TestRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
			return
		}
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j000001", State: server.StateDone})
	}))
	defer srv.Close()

	c, delays := quiet(srv.URL)
	before := obs.Flight.Seq()
	st, err := c.Status(context.Background(), "j000001")
	if err != nil {
		t.Fatalf("Status: %v", err)
	}
	// Each retry is one Warn record, teed into the flight recorder
	// through the client's default Discard logger.
	evs := obs.Flight.Snapshot()
	if grew := obs.Flight.Seq() - before; grew != 2 {
		t.Errorf("flight grew by %d over 2 retries, want 2", grew)
	} else if ev := evs[len(evs)-1]; ev.Kind != "log" || ev.Msg != "retrying request" || ev.Attrs["level"] != "WARN" {
		t.Errorf("retry recorded as %+v", ev)
	}
	if st.State != server.StateDone {
		t.Fatalf("state = %q, want done", st.State)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
	// Retry-After: 1 must raise both backoff delays to ≥1s.
	if len(*delays) != 2 {
		t.Fatalf("slept %d times, want 2: %v", len(*delays), *delays)
	}
	for _, d := range *delays {
		if d < time.Second {
			t.Fatalf("delay %v ignored Retry-After of 1s", d)
		}
	}
}

func TestNonRetryableFailsFast(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "unknown model \"vliw\"", "kind": "invalid input"})
	}))
	defer srv.Close()

	c, delays := quiet(srv.URL)
	_, err := c.Submit(context.Background(), server.Spec{Models: []string{"vliw"}})
	if err == nil {
		t.Fatal("Submit succeeded against a 400 server")
	}
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindInvalidInput {
		t.Fatalf("error = %v, want KindInvalidInput", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (400 is not retryable)", got)
	}
	if len(*delays) != 0 {
		t.Fatalf("client slept %v before a non-retryable failure", *delays)
	}
}

func TestBodyKindBeatsStatus(t *testing.T) {
	// A proxy may rewrite 429 to 500; the body's kind stays
	// authoritative so the client still treats it as load shedding.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "queue full", "kind": "overload"})
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	c.Retry.Attempts = 1
	err := c.Healthy(context.Background())
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindOverload {
		t.Fatalf("error = %v, want KindOverload from body kind", err)
	}
}

func TestForeignBodyFallsBackToStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nginx says no", http.StatusBadGateway)
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	c.Retry.Attempts = 1
	err := c.Healthy(context.Background())
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindUnavailable {
		t.Fatalf("error = %v, want KindUnavailable from HTTP 502", err)
	}
}

func TestRetriesThroughInjectedFaults(t *testing.T) {
	// A hermetic flaky network: the fault injector periodically resets
	// connections and opens 503 bursts in front of a healthy server.
	// With enough attempts the client must still land every request.
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		json.NewEncoder(w).Encode(server.JobStatus{ID: "j000001", State: server.StateDone})
	}))
	defer srv.Close()

	ft := faultinject.NewFaultyTransport(srv.Client().Transport, 0, 0, 0.2, 0.2, 2, 42)
	c, _ := quiet(srv.URL)
	c.HTTP = &http.Client{Transport: ft}
	c.Retry.Attempts = 12
	c.Breaker = nil // exercised separately; here we want raw retries

	for i := 0; i < 20; i++ {
		if _, err := c.Status(context.Background(), "j000001"); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	delays, resets, errs := ft.Faults()
	_ = delays
	if resets == 0 || errs == 0 {
		t.Fatalf("fault injector idle (resets=%d errs=%d); test proves nothing", resets, errs)
	}
	if calls.Load() < 20 {
		t.Fatalf("server saw %d calls, want ≥20", calls.Load())
	}
}

func TestContextCancelStopsRetrying(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "down", "kind": "unavailable"})
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	c.Retry.Attempts = 100
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	c.sleep = func(ctx context.Context, d time.Duration) error {
		n++
		if n >= 2 {
			cancel()
		}
		if err := runx.CtxErr(ctx, "test"); err != nil {
			return err
		}
		return nil
	}
	_, err := c.Status(ctx, "j000001")
	if err == nil {
		t.Fatal("Status succeeded against a permanently down server")
	}
	if n > 3 {
		t.Fatalf("client kept retrying (%d sleeps) after cancellation", n)
	}
}

func TestWaitPollsToCompletion(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := server.JobStatus{ID: "j000001", State: server.StateRunning, CellsDone: 1, CellsTotal: 4}
		if calls.Add(1) >= 3 {
			st.State = server.StateDone
			st.CellsDone = 4
		}
		json.NewEncoder(w).Encode(st)
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	st, err := c.Wait(context.Background(), "j000001", time.Millisecond)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if st.State != server.StateDone || st.CellsDone != 4 {
		t.Fatalf("final status = %+v, want done 4/4", st)
	}
}

func TestWaitSurfacesJobFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(server.JobStatus{
			ID: "j000001", State: server.StateFailed,
			Error: "sweep: deadline exceeded", Kind: "deadline exceeded",
		})
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	st, err := c.Wait(context.Background(), "j000001", time.Millisecond)
	if st.State != server.StateFailed {
		t.Fatalf("status = %+v, want failed", st)
	}
	e, ok := runx.As(err)
	if !ok || e.Kind != runx.KindDeadline {
		t.Fatalf("error = %v, want KindDeadline reconstructed from job kind", err)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	now := time.Unix(1000, 0)
	b := &Breaker{Threshold: 3, Cooldown: 2 * time.Second, now: func() time.Time { return now }}

	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow before threshold: %v", err)
		}
		b.Record(false)
	}
	if b.State() != "open" {
		t.Fatalf("state = %q after %d failures, want open", b.State(), 3)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("Allow succeeded while open")
	} else if e, ok := runx.As(err); !ok || e.Kind != runx.KindUnavailable {
		t.Fatalf("open-circuit error = %v, want KindUnavailable", err)
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	now = now.Add(3 * time.Second)
	if b.State() != "half-open" {
		t.Fatalf("state = %q after cooldown, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if err := b.Allow(); err == nil {
		t.Fatal("second concurrent probe admitted in half-open state")
	}

	// Probe fails → reopen for another cooldown.
	b.Record(false)
	if err := b.Allow(); err == nil {
		t.Fatal("Allow succeeded immediately after failed probe")
	}

	// Next probe succeeds → closed, failure count reset.
	now = now.Add(3 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after second cooldown rejected: %v", err)
	}
	b.Record(true)
	if b.State() != "closed" {
		t.Fatalf("state = %q after successful probe, want closed", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("Allow after recovery: %v", err)
	}
}

func TestBreakerIgnoresShedding(t *testing.T) {
	// 429s mean the server is alive and protecting itself; no amount of
	// them may open the breaker. Healthy outcomes also reset the count.
	b := &Breaker{Threshold: 2, Cooldown: time.Minute}
	for i := 0; i < 10; i++ {
		b.Record(true) // how the client records a 429
	}
	if b.State() != "closed" {
		t.Fatalf("state = %q after shed-only traffic, want closed", b.State())
	}
	b.Record(false)
	b.Record(true)
	b.Record(false)
	if b.State() != "closed" {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

func TestClientFailsFastThroughOpenBreaker(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		json.NewEncoder(w).Encode(map[string]string{"error": "boom", "kind": "panic"})
	}))
	defer srv.Close()

	c, _ := quiet(srv.URL)
	c.Retry.Attempts = 1
	c.Breaker = &Breaker{Threshold: 2, Cooldown: time.Minute}

	for i := 0; i < 5; i++ {
		if err := c.Healthy(context.Background()); err == nil {
			t.Fatal("Healthy succeeded against a 500 server")
		}
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (breaker opens after threshold)", got)
	}
	if c.Breaker.State() != "open" {
		t.Fatalf("breaker state = %q, want open", c.Breaker.State())
	}
}

func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"2", 2 * time.Second}, {" 10 ", 10 * time.Second},
		{"-1", 0}, {"soon", 0}, {"Wed, 21 Oct 2015 07:28:00 GMT", 0},
	} {
		if got := parseRetryAfter(tc.in); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestWaitAdaptiveBackoff scripts a daemon outage mid-wait and checks
// the poll cadence: healthy polls run at the base interval, consecutive
// retryable failures double the delay, the server's Retry-After hint
// raises it, the backoff caps at WaitBackoffCap, and the first healthy
// poll resets to the base interval.
func TestWaitAdaptiveBackoff(t *testing.T) {
	running, _ := json.Marshal(server.JobStatus{ID: "j1", State: server.StateRunning})
	done, _ := json.Marshal(server.JobStatus{ID: "j1", State: server.StateDone})
	script := []func(w http.ResponseWriter){
		func(w http.ResponseWriter) { w.Write(running) }, // healthy: base cadence
		func(w http.ResponseWriter) { // outage begins, server hints 2s
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
		},
		func(w http.ResponseWriter) { // hint persists but doubling overtakes it
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
		},
		func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
		},
		func(w http.ResponseWriter) {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "draining", "kind": "unavailable"})
		},
		func(w http.ResponseWriter) { w.Write(running) }, // recovery: reset
		func(w http.ResponseWriter) { w.Write(done) },
	}
	var call atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(call.Add(1)) - 1
		if n >= len(script) {
			w.Write(done)
			return
		}
		script[n](w)
	}))
	defer srv.Close()

	c, delays := quiet(srv.URL)
	c.Retry = superv.RetryPolicy{Attempts: 1} // Wait's loop owns poll retry
	c.Breaker = nil

	st, err := c.Wait(context.Background(), "j1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != server.StateDone {
		t.Fatalf("final state %q", st.State)
	}
	want := []time.Duration{
		1 * time.Second,  // healthy
		2 * time.Second,  // 2×1s, matches the 2s hint
		4 * time.Second,  // doubling overtakes the stale hint
		8 * time.Second,  //
		10 * time.Second, // capped at WaitBackoffCap
		1 * time.Second,  // healthy again: reset to base
	}
	if len(*delays) != len(want) {
		t.Fatalf("poll delays = %v, want %v", *delays, want)
	}
	for i, d := range want {
		if (*delays)[i] != d {
			t.Errorf("delay[%d] = %s, want %s (all: %v)", i, (*delays)[i], d, *delays)
		}
	}
}

// TestWaitHintRaisesBackoff: a Retry-After hint larger than the doubled
// delay wins — the server's own capacity estimate is never undercut.
func TestWaitHintRaisesBackoff(t *testing.T) {
	done, _ := json.Marshal(server.JobStatus{ID: "j1", State: server.StateDone})
	var call atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if call.Add(1) == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "shed", "kind": "overload"})
			return
		}
		w.Write(done)
	}))
	defer srv.Close()

	c, delays := quiet(srv.URL)
	c.Retry = superv.RetryPolicy{Attempts: 1}
	c.Breaker = nil

	if _, err := c.Wait(context.Background(), "j1", 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(*delays) == 0 || (*delays)[0] != 7*time.Second {
		t.Errorf("first backoff = %v, want the 7s Retry-After hint", *delays)
	}
}
