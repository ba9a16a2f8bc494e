package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"deesim/internal/faultinject"
	"deesim/internal/obs"
)

// oneCellSpec is the smallest possible sweep: a single cell, so tests
// can pace exactly one worker slot with CellDelay.
func oneCellSpec() Spec {
	return Spec{
		Workloads: []string{"xlisp"},
		Models:    []string{"SP"},
		Resources: []int{8},
		MaxInstrs: 3000,
	}
}

// regValue reads one sample from a private metrics registry (0 if the
// series was never created).
func regValue(reg *obs.Registry, name string) float64 {
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

func submitOK(t *testing.T, base string, sp Spec) JobStatus {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestBrownoutFlightOnce: with no Logger configured, a brownout
// transition still reaches the flight recorder, as one Warn log record
// carrying the submission's trace id.
func TestBrownoutFlightOnce(t *testing.T) {
	s, err := New(Config{StateDir: t.TempDir(), QueueDepth: 4, BrownoutWatermark: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // never started: submissions stay queued
	if _, err := s.Submit(oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTrace()
	if _, err := s.SubmitCtx(obs.WithTraceContext(context.Background(), tc), oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	var got []obs.FlightEvent
	for _, ev := range obs.Flight.Snapshot() {
		if ev.Attrs["trace_id"] == tc.TraceID || ev.Attrs["trace"] == tc.TraceID {
			got = append(got, ev)
		}
	}
	if len(got) != 1 {
		t.Fatalf("brownout recorded %d times, want once: %+v", len(got), got)
	}
	ev := got[0]
	if ev.Kind != "log" || ev.Msg != "brownout transition" || ev.Attrs["level"] != "WARN" ||
		ev.Attrs["from"] != "0" || ev.Attrs["to"] != "1" {
		t.Errorf("brownout recorded as %+v, want a WARN transition 0 -> 1", ev)
	}
}

// TestPriorityLanesInteractiveFirst: with one worker busy and a batch
// job queued ahead of an interactive one, the worker must pop the
// interactive job first — class order beats arrival order.
func TestPriorityLanesInteractiveFirst(t *testing.T) {
	_, hs := newTestServer(t, Config{
		QueueDepth: 8, BatchQueueDepth: 8, BrownoutWatermark: 8,
		Workers: 1, CellJobs: 1,
	})

	blocker := oneCellSpec()
	blocker.CellDelay = "600ms"
	blk := submitOK(t, hs.URL, blocker)
	waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)

	batch := oneCellSpec()
	batch.Priority = PriorityBatch
	batch.CellDelay = "300ms"
	bst := submitOK(t, hs.URL, batch)

	inter := oneCellSpec()
	inter.Priority = PriorityInteractive
	ist := submitOK(t, hs.URL, inter)

	// The interactive job, though submitted last, finishes first; the
	// batch job (paced at 300ms) cannot have completed yet.
	waitState(t, hs.URL, ist.ID, StateDone, 15*time.Second)
	_, body := getJSON(t, hs.URL+"/v1/jobs/"+bst.ID)
	var got JobStatus
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.State == StateDone {
		t.Errorf("batch job finished before interactive despite priority lanes")
	}
	if got.Priority != PriorityBatch {
		t.Errorf("batch job status priority = %q, want %q", got.Priority, PriorityBatch)
	}
	waitState(t, hs.URL, bst.ID, StateDone, 15*time.Second)
	waitState(t, hs.URL, blk.ID, StateDone, 15*time.Second)
}

// TestBrownoutLadder walks levels 0→1→2: batch sheds once interactive
// occupancy crosses the watermark, new interactive defers once the
// interactive queue fills, and /readyz plus the metrics registry report
// every step.
func TestBrownoutLadder(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, Config{
		QueueDepth: 3, BatchQueueDepth: 8, BrownoutWatermark: 2,
		Workers: 1, CellJobs: 1, RetryAfter: time.Second, Metrics: reg,
	})

	blocker := oneCellSpec()
	blocker.CellDelay = "900ms"
	blk := submitOK(t, hs.URL, blocker)
	waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)

	// Two queued interactive jobs reach the watermark: level 1.
	accepted := []string{blk.ID}
	for i := 0; i < 2; i++ {
		accepted = append(accepted, submitOK(t, hs.URL, oneCellSpec()).ID)
	}
	_, body := getJSON(t, hs.URL+"/readyz")
	var rs ReadyStatus
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Brownout != BrownoutShedBatch {
		t.Errorf("readyz brownout = %d, want %d (shed batch)", rs.Brownout, BrownoutShedBatch)
	}

	batch := oneCellSpec()
	batch.Priority = PriorityBatch
	resp, body := postJSON(t, hs.URL+"/v1/jobs", batch)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch under brownout: HTTP %d (want 429): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("batch brownout shed missing Retry-After")
	}
	if !strings.Contains(string(body), "brownout") {
		t.Errorf("batch shed body does not name brownout: %s", body)
	}

	// A third interactive job fills the queue: level 2, and the next
	// interactive submission defers.
	accepted = append(accepted, submitOK(t, hs.URL, oneCellSpec()).ID)
	resp, body = postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("interactive at level 2: HTTP %d (want 429): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("level-2 defer missing Retry-After")
	}
	if !strings.Contains(string(body), "brownout level 2") {
		t.Errorf("level-2 shed body: %s", body)
	}
	_, body = getJSON(t, hs.URL+"/readyz")
	if err := json.Unmarshal(body, &rs); err != nil {
		t.Fatal(err)
	}
	if rs.Brownout != BrownoutDeferAll {
		t.Errorf("readyz brownout = %d, want %d (defer all)", rs.Brownout, BrownoutDeferAll)
	}

	if v := regValue(reg, "deesim_server_brownout_sheds_total"); v < 2 {
		t.Errorf("brownout_sheds_total = %v, want >= 2", v)
	}
	if v := regValue(reg, `deesim_server_class_sheds_total{class="batch"}`); v < 1 {
		t.Errorf("batch class sheds = %v, want >= 1", v)
	}
	if v := regValue(reg, `deesim_server_class_sheds_total{class="interactive"}`); v < 1 {
		t.Errorf("interactive class sheds = %v, want >= 1", v)
	}

	// Everything actually accepted still completes: brownout sheds new
	// work, never acked work.
	for _, id := range accepted {
		waitState(t, hs.URL, id, StateDone, 30*time.Second)
	}
}

// TestDeadlineRejectedAtSubmission: a spec whose absolute deadline
// already passed is refused 504 KindTimeout up front — no queue slot,
// no Retry-After (retrying cannot help a passed deadline).
func TestDeadlineRejectedAtSubmission(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, Config{Metrics: reg})

	sp := oneCellSpec()
	sp.Deadline = time.Now().Add(-time.Minute).UTC().Format(time.RFC3339)
	resp, body := postJSON(t, hs.URL+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: HTTP %d (want 504): %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "" {
		t.Error("deadline rejection carries Retry-After; retrying cannot help")
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Kind != "deadline exceeded" {
		t.Errorf("kind = %q (err %v), want deadline exceeded", eb.Kind, err)
	}
	if !strings.Contains(eb.Error, "already passed") {
		t.Errorf("error does not name the passed deadline: %s", eb.Error)
	}
	if v := regValue(reg, "deesim_server_deadline_timeouts_total"); v != 1 {
		t.Errorf("deadline_timeouts_total = %v, want 1", v)
	}

	// Garbage deadline: invalid input, not a timeout.
	sp.Deadline = "tomorrow-ish"
	resp, body = postJSON(t, hs.URL+"/v1/jobs", sp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad deadline: HTTP %d (want 400): %s", resp.StatusCode, body)
	}
}

// TestDeadlineMissedInQueue: a job whose deadline expires while it sits
// behind a busy worker fails KindTimeout at pickup — never silently
// run late, never re-dispatched.
func TestDeadlineMissedInQueue(t *testing.T) {
	reg := obs.NewRegistry()
	_, hs := newTestServer(t, Config{Workers: 1, CellJobs: 1, Metrics: reg})

	blocker := oneCellSpec()
	blocker.CellDelay = "900ms"
	blk := submitOK(t, hs.URL, blocker)
	waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)

	// RFC3339Nano keeps the sub-second deadline exact (plain RFC3339
	// would truncate it into the past).
	doomed := oneCellSpec()
	doomed.Deadline = time.Now().Add(300 * time.Millisecond).UTC().Format(time.RFC3339Nano)
	dst := submitOK(t, hs.URL, doomed)
	if dst.Deadline != doomed.Deadline {
		t.Errorf("status deadline = %q, want %q", dst.Deadline, doomed.Deadline)
	}

	got := waitState(t, hs.URL, dst.ID, StateFailed, 15*time.Second)
	if got.Kind != "deadline exceeded" {
		t.Errorf("failed kind = %q, want deadline exceeded", got.Kind)
	}
	if !strings.Contains(got.Error, "missed its deadline") {
		t.Errorf("error = %q, want a missed-deadline message", got.Error)
	}
	if v := regValue(reg, "deesim_server_deadline_timeouts_total"); v < 1 {
		t.Errorf("deadline_timeouts_total = %v, want >= 1", v)
	}
	waitState(t, hs.URL, blk.ID, StateDone, 15*time.Second)

	// The failure is durable and terminal: status keeps reporting failed
	// (a re-dispatch would flip it back to queued/running).
	time.Sleep(50 * time.Millisecond)
	_, body := getJSON(t, hs.URL+"/v1/jobs/"+dst.ID)
	var again JobStatus
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.State != StateFailed {
		t.Errorf("deadline-failed job re-entered state %q", again.State)
	}
}

// TestSpecWithoutSLOFieldsUnchanged: an old client's spec — no
// priority, no deadline — admits, runs, and reports status with the
// exact pre-SLO wire shape (no new keys leak into its status JSON).
func TestSpecWithoutSLOFieldsUnchanged(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	st := submitOK(t, hs.URL, oneCellSpec())
	waitState(t, hs.URL, st.ID, StateDone, 30*time.Second)

	_, body := getJSON(t, hs.URL+"/v1/jobs/"+st.ID)
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"priority", "deadline"} {
		if _, ok := raw[key]; ok {
			t.Errorf("legacy job status leaked new key %q: %s", key, body)
		}
	}
}

// TestShedSitesSendRetryAfter is the shed-path audit as a table: every
// 429/503 site must carry Retry-After so clients back off usefully,
// and the deadline 504 must NOT (retrying cannot beat a passed
// deadline). Each case provokes one distinct site on a fresh server.
func TestShedSitesSendRetryAfter(t *testing.T) {
	type want struct {
		status     int
		kind       string
		retryAfter bool
	}
	cases := []struct {
		name string
		run  func(t *testing.T) (*http.Response, []byte)
		want want
	}{
		{
			name: "submit interactive queue full (brownout defer)",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, hs := newTestServer(t, Config{QueueDepth: 1, Workers: 1, CellJobs: 1})
				blocker := oneCellSpec()
				blocker.CellDelay = "500ms"
				blk := submitOK(t, hs.URL, blocker)
				waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)
				submitOK(t, hs.URL, oneCellSpec()) // fills the 1-deep queue
				resp, body := postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
				return resp, body
			},
			want: want{http.StatusTooManyRequests, "overload", true},
		},
		{
			name: "submit batch under brownout",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, hs := newTestServer(t, Config{QueueDepth: 4, BrownoutWatermark: 1, Workers: 1, CellJobs: 1})
				blocker := oneCellSpec()
				blocker.CellDelay = "500ms"
				blk := submitOK(t, hs.URL, blocker)
				waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)
				submitOK(t, hs.URL, oneCellSpec()) // occupancy 1 = watermark
				batch := oneCellSpec()
				batch.Priority = PriorityBatch
				resp, body := postJSON(t, hs.URL+"/v1/jobs", batch)
				return resp, body
			},
			want: want{http.StatusTooManyRequests, "overload", true},
		},
		{
			name: "submit batch queue full",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, hs := newTestServer(t, Config{
					QueueDepth: 8, BatchQueueDepth: 1, BrownoutWatermark: 8,
					Workers: 1, CellJobs: 1,
				})
				blocker := oneCellSpec()
				blocker.CellDelay = "500ms"
				blk := submitOK(t, hs.URL, blocker)
				waitState(t, hs.URL, blk.ID, StateRunning, 10*time.Second)
				batch := oneCellSpec()
				batch.Priority = PriorityBatch
				submitOK(t, hs.URL, batch) // fills the 1-deep batch lane
				resp, body := postJSON(t, hs.URL+"/v1/jobs", batch)
				return resp, body
			},
			want: want{http.StatusTooManyRequests, "overload", true},
		},
		{
			name: "submit while draining",
			run: func(t *testing.T) (*http.Response, []byte) {
				s, hs := newTestServer(t, Config{DrainGrace: 50 * time.Millisecond})
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				resp, body := postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
				return resp, body
			},
			want: want{http.StatusServiceUnavailable, "unavailable", true},
		},
		{
			name: "submit while degraded (ENOSPC)",
			run: func(t *testing.T) (*http.Response, []byte) {
				ffs := faultinject.NewFaultyFS(nil, 17)
				_, hs := newTestServer(t, Config{FS: ffs})
				ffs.SetNoSpace(true)
				// First submission trips degraded mode at the persist step;
				// the second sheds at admission. Both must hint Retry-After.
				resp, body := postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("persist-failure shed: HTTP %d Retry-After %q: %s",
						resp.StatusCode, resp.Header.Get("Retry-After"), body)
				}
				resp, body = postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
				return resp, body
			},
			want: want{http.StatusServiceUnavailable, "unavailable", true},
		},
		{
			name: "cell while draining",
			run: func(t *testing.T) (*http.Response, []byte) {
				s, hs := newTestServer(t, Config{CellSlots: 2, DrainGrace: 50 * time.Millisecond})
				if err := s.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				resp, body := postJSON(t, hs.URL+"/v1/cells", cellRequestFor(t, smokeSpec()))
				return resp, body
			},
			want: want{http.StatusServiceUnavailable, "unavailable", true},
		},
		{
			name: "cell past sweep deadline (no Retry-After by design)",
			run: func(t *testing.T) (*http.Response, []byte) {
				_, hs := newTestServer(t, Config{CellSlots: 2})
				sp := smokeSpec()
				sp.Deadline = time.Now().Add(-time.Second).UTC().Format(time.RFC3339)
				resp, body := postJSON(t, hs.URL+"/v1/cells", cellRequestFor(t, sp))
				return resp, body
			},
			want: want{http.StatusGatewayTimeout, "deadline exceeded", false},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			resp, body := tc.run(t)
			if resp.StatusCode != tc.want.status {
				t.Fatalf("HTTP %d, want %d: %s", resp.StatusCode, tc.want.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("unparsable error body %s: %v", body, err)
			}
			if eb.Kind != tc.want.kind {
				t.Errorf("kind = %q, want %q (%s)", eb.Kind, tc.want.kind, eb.Error)
			}
			got := resp.Header.Get("Retry-After") != ""
			if got != tc.want.retryAfter {
				t.Errorf("Retry-After present = %v, want %v", got, tc.want.retryAfter)
			}
		})
	}
}
