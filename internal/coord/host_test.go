package coord

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"deesim/internal/durable"
	"deesim/internal/faultinject"
	"deesim/internal/runx"
	"deesim/internal/server"
)

// The coordinator runs on the same job host as deesimd (server.Host).
// These tests pin the host behaviour the coordinator gained from it:
// failure markers durable before the state is published, in-process
// heal of a result that rots at read time, and priority lanes with the
// brownout ladder.

func (c *Coordinator) sweepDir(id string) string {
	return filepath.Dir(c.ResultPath(id))
}

// oneCellSpec is a single-cell sweep, so lane order is readable
// straight off the dispatch sequence.
func oneCellSpec() server.Spec {
	return server.Spec{Workloads: []string{"xlisp"}, Models: []string{"SP"}, Resources: []int{8}, MaxInstrs: 3000}
}

// stallRenameFS holds the rename that lands a file named target until
// release is closed, signalling reached when it gets there.
type stallRenameFS struct {
	durable.FS
	target  string
	once    sync.Once
	reached chan struct{}
	release chan struct{}
}

func (f *stallRenameFS) Rename(oldpath, newpath string) error {
	if filepath.Base(newpath) == f.target {
		f.once.Do(func() { close(f.reached) })
		<-f.release
	}
	return f.FS.Rename(oldpath, newpath)
}

// TestCoordFailedPublishedAfterMarkerDurable: a sweep that fails
// permanently must not read as failed until failed.json is durable —
// otherwise a client sees "failed" and a crash at that instant
// re-queues the sweep on restart.
func TestCoordFailedPublishedAfterMarkerDurable(t *testing.T) {
	fsys := &stallRenameFS{
		FS: durable.OS, target: "failed.json",
		reached: make(chan struct{}), release: make(chan struct{}),
	}
	f := &fakeWorker{behavior: func(context.Context, int, server.CellRequest) (json.RawMessage, error) {
		return nil, runx.Newf(runx.KindInvalidInput, "test", "poisoned cell")
	}}
	c := newTestCoord(t, map[string]*fakeWorker{"http://w1": f}, func(cfg *Config) {
		cfg.FS = fsys
	})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(fsys.release) }) }
	t.Cleanup(release) // runs before Close, so a failed test never hangs
	registerWorker(t, c, "http://w1", 4)
	c.Start()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-fsys.reached:
	case <-time.After(10 * time.Second):
		t.Fatal("failed.json rename never reached")
	}
	if cur, _ := c.Status(st.ID); cur.State == server.StateFailed {
		t.Fatalf("status %q published before failed.json is durable", cur.State)
	}
	release()
	final := waitSweep(t, c, st.ID, 10*time.Second)
	if final.State != server.StateFailed {
		t.Fatalf("sweep ended %s, want failed", final.State)
	}
	if _, err := durable.ReadFileVerified(nil, filepath.Join(c.sweepDir(st.ID), "failed.json")); err != nil {
		t.Errorf("failed.json not durable once failed is published: %v", err)
	}
}

// TestCoordCorruptResultAtReadTimeRequeues: rot the merged result
// while the coordinator is live. The fetch refuses the poisoned bytes
// (retryable 503), quarantines them, and re-queues the sweep, which
// re-merges from its journal without a single new dispatch.
func TestCoordCorruptResultAtReadTimeRequeues(t *testing.T) {
	f := &fakeWorker{}
	c := newTestCoord(t, map[string]*fakeWorker{"http://w1": f}, nil)
	registerWorker(t, c, "http://w1", 4)
	c.Start()
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()

	st, err := c.Submit(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if final := waitSweep(t, c, st.ID, 10*time.Second); final.State != server.StateDone {
		t.Fatalf("sweep ended %s: %s", final.State, final.Error)
	}
	dispatched := f.callCount()

	if _, err := faultinject.NewFaultyFS(nil, 2).RotFile(c.ResultPath(st.ID)); err != nil {
		t.Fatal(err)
	}
	resp, body := getJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/result")
	var eb struct{ Error, Kind string }
	_ = json.Unmarshal(body, &eb)
	if resp.StatusCode != http.StatusServiceUnavailable || eb.Kind != "unavailable" {
		t.Fatalf("poisoned fetch: HTTP %d kind %q, want 503 unavailable: %s", resp.StatusCode, eb.Kind, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("poisoned fetch missing Retry-After")
	}

	if final := waitSweep(t, c, st.ID, 10*time.Second); final.State != server.StateDone {
		t.Fatalf("healed sweep ended %s: %s", final.State, final.Error)
	}
	if got := f.callCount() - dispatched; got != 0 {
		t.Errorf("heal dispatched %d cells, want 0 (the journal holds them all)", got)
	}
	resp, healed := getJSON(t, hs.URL+"/v1/jobs/"+st.ID+"/result")
	golden := goldenResult(t, smokeSpec())
	if resp.StatusCode != http.StatusOK || string(healed) != string(golden) {
		t.Errorf("healed fetch: HTTP %d, byte-identical to golden = %v", resp.StatusCode, string(healed) == string(golden))
	}
	if got := counter(c, "deesim_coord_healed_total"); got != 1 {
		t.Errorf("healed_total = %d, want 1", got)
	}
}

// TestCoordBatchShedsFirst: batch sweeps admit against their own lane
// and shed once interactive occupancy reaches the watermark
// (QueueDepth/2), while interactive sweeps still admit.
func TestCoordBatchShedsFirst(t *testing.T) {
	c := newTestCoord(t, nil, func(cfg *Config) {
		cfg.QueueDepth = 2
	})
	// Runner not started: submissions stay queued.
	if _, err := c.Submit(oneCellSpec()); err != nil {
		t.Fatal(err)
	}
	batch := oneCellSpec()
	batch.Priority = server.PriorityBatch
	_, err := c.Submit(batch)
	if !runx.IsKind(err, runx.KindOverload) || !strings.Contains(err.Error(), "brownout") {
		t.Fatalf("batch at the watermark = %v, want a brownout overload", err)
	}
	if _, err := c.Submit(oneCellSpec()); err != nil {
		t.Errorf("interactive under the queue bound shed: %v", err)
	}
	if got := counter(c, "deesim_coord_brownout_sheds_total"); got != 1 {
		t.Errorf("brownout_sheds_total = %d, want 1", got)
	}
	if got := counter(c, `deesim_coord_class_sheds_total{class="batch"}`); got != 1 {
		t.Errorf("batch class sheds = %d, want 1", got)
	}
}

// TestCoordInteractiveBeforeEarlierBatch: with the runner busy, a
// queued interactive sweep runs before a batch sweep submitted ahead
// of it — class order beats arrival order.
func TestCoordInteractiveBeforeEarlierBatch(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var order []string
	f := &fakeWorker{behavior: func(ctx context.Context, call int, req server.CellRequest) (json.RawMessage, error) {
		mu.Lock()
		order = append(order, strings.SplitN(req.Lease, "-", 2)[0])
		mu.Unlock()
		if call == 1 {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, runx.CtxErr(ctx, "fakeWorker")
			}
		}
		return runRealCell(ctx, req)
	}}
	c := newTestCoord(t, map[string]*fakeWorker{"http://w1": f}, nil)
	registerWorker(t, c, "http://w1", 1)
	c.Start()

	blk, err := c.Submit(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	batch := oneCellSpec()
	batch.Priority = server.PriorityBatch
	bst, err := c.Submit(batch)
	if err != nil {
		t.Fatal(err)
	}
	ist, err := c.Submit(oneCellSpec())
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, id := range []string{blk.ID, ist.ID, bst.ID} {
		if final := waitSweep(t, c, id, 10*time.Second); final.State != server.StateDone {
			t.Fatalf("sweep %s ended %s: %s", id, final.State, final.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []string{blk.ID, ist.ID, bst.ID}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Errorf("dispatch order %v, want %v (interactive before the earlier batch)", order, want)
	}
}

// TestCoordShedSitesSendRetryAfter is the coordinator half of the
// shed-path audit: every 429/503 admission shed carries Retry-After.
func TestCoordShedSitesSendRetryAfter(t *testing.T) {
	batch := oneCellSpec()
	batch.Priority = server.PriorityBatch
	cases := []struct {
		name   string
		run    func(t *testing.T) (*http.Response, []byte)
		status int
		kind   string
	}{
		{
			name: "interactive queue full",
			run: func(t *testing.T) (*http.Response, []byte) {
				c, hs := newShedCoord(t, func(cfg *Config) { cfg.QueueDepth = 1 })
				if _, err := c.Submit(oneCellSpec()); err != nil {
					t.Fatal(err)
				}
				return postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
			},
			status: http.StatusTooManyRequests, kind: "overload",
		},
		{
			name: "batch at the brownout watermark",
			run: func(t *testing.T) (*http.Response, []byte) {
				c, hs := newShedCoord(t, func(cfg *Config) { cfg.QueueDepth = 2 })
				if _, err := c.Submit(oneCellSpec()); err != nil {
					t.Fatal(err)
				}
				return postJSON(t, hs.URL+"/v1/jobs", batch)
			},
			status: http.StatusTooManyRequests, kind: "overload",
		},
		{
			name: "draining",
			run: func(t *testing.T) (*http.Response, []byte) {
				c, hs := newShedCoord(t, nil)
				if err := c.Drain(context.Background()); err != nil {
					t.Fatal(err)
				}
				return postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
			},
			status: http.StatusServiceUnavailable, kind: "unavailable",
		},
		{
			name: "degraded (ENOSPC)",
			run: func(t *testing.T) (*http.Response, []byte) {
				ffs := faultinject.NewFaultyFS(nil, 17)
				_, hs := newShedCoord(t, func(cfg *Config) { cfg.FS = ffs })
				ffs.SetNoSpace(true)
				// The first submission trips degraded mode at the persist
				// step; the second sheds at admission. Both hint Retry-After.
				resp, body := postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("persist-failure shed: HTTP %d Retry-After %q: %s",
						resp.StatusCode, resp.Header.Get("Retry-After"), body)
				}
				return postJSON(t, hs.URL+"/v1/jobs", oneCellSpec())
			},
			status: http.StatusServiceUnavailable, kind: "unavailable",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			resp, body := tc.run(t)
			var eb struct{ Error, Kind string }
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("unparsable error body %s: %v", body, err)
			}
			if resp.StatusCode != tc.status || eb.Kind != tc.kind {
				t.Fatalf("HTTP %d kind %q, want %d %q: %s", resp.StatusCode, eb.Kind, tc.status, tc.kind, eb.Error)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Error("shed missing Retry-After")
			}
		})
	}
}

// newShedCoord is a coordinator (runner not started, so submissions
// stay queued) served over HTTP.
func newShedCoord(t *testing.T, mod func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := newTestCoord(t, nil, mod)
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(hs.Close)
	return c, hs
}

// TestCoordHostSeriesRegistered: the coordinator exports the job
// host's admission and lifecycle series under deesim_coord_*.
func TestCoordHostSeriesRegistered(t *testing.T) {
	c := newTestCoord(t, nil, nil)
	var buf strings.Builder
	if err := c.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"deesim_coord_queue_depth", "deesim_coord_sweeps_inflight",
		"deesim_coord_sweeps_accepted_total", "deesim_coord_sheds_total",
		"deesim_coord_drain_sheds_total", "deesim_coord_sweeps_done_total",
		"deesim_coord_sweeps_failed_total", "deesim_coord_sweeps_interrupted_total",
		"deesim_coord_sweeps_recovered_total", "deesim_coord_low_disk",
		"deesim_coord_quarantined_total", "deesim_coord_healed_total",
		"deesim_coord_brownout_level", "deesim_coord_brownout_sheds_total",
		"deesim_coord_deadline_timeouts_total", "deesim_coord_class_queue_depth",
		"deesim_coord_class_sheds_total", "deesim_coord_sweep_queue_wait_seconds",
		"deesim_coord_sweep_run_seconds", "deesim_coord_sweeps_resumed_total",
	} {
		if !strings.Contains(buf.String(), "# TYPE "+name+" ") {
			t.Errorf("series %s not registered", name)
		}
	}
}
