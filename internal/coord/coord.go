package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"deesim/internal/bench"
	"deesim/internal/budget"
	"deesim/internal/client"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
	"deesim/internal/superv"
)

const stageCoord = "coord"

// WorkerClient is the coordinator's view of one worker: run a leased
// cell, synchronously, returning the CellResult bytes verbatim. The
// production implementation is client.Client (per-worker breaker
// included); scheduler tests swap in fakes that stall, crash, lie, and
// duplicate.
type WorkerClient interface {
	RunCell(ctx context.Context, req server.CellRequest) (json.RawMessage, error)
}

// Config parameterizes the coordinator.
type Config struct {
	// StateDir is the durable root: sweeps/<id>/{spec.json,
	// coord.journal, result.json, failed.json}.
	StateDir string
	// QueueDepth bounds interactive sweeps accepted but not yet running
	// (default 8). As on deesimd, batch sweeps queue in their own lane
	// of QueueDepth/2 (minimum 1) and shed first, once interactive
	// occupancy reaches that same watermark.
	QueueDepth int
	// LeaseTTL is the wall-clock bound on one cell lease; an expired
	// lease re-dispatches the cell (default 2m). Must exceed the
	// workers' CellTimeout or healthy slow cells get revoked.
	LeaseTTL time.Duration
	// HeartbeatTimeout is how stale a worker's heartbeat may grow before
	// the coordinator declares it lost and expires its leases
	// (default 15s).
	HeartbeatTimeout time.Duration
	// HeartbeatEvery is the cadence workers are told to beat at
	// (default HeartbeatTimeout/3).
	HeartbeatEvery time.Duration
	// CellRetries bounds re-dispatches per cell beyond the first attempt
	// (default 2). Lease expiries and retryable worker errors consume
	// the same budget.
	CellRetries int
	// Backoff seeds the per-cell re-dispatch backoff (superv's capped
	// seeded-jitter policy; default 250ms).
	Backoff time.Duration
	// StragglerFactor triggers speculation: once the pending queue is
	// empty, a lease running longer than factor × the median completed
	// cell duration gets a speculative duplicate on an idle worker
	// (default 3; 0 disables).
	StragglerFactor float64
	// RequestTimeout bounds each API request (default 10s).
	RequestTimeout time.Duration
	// DrainGrace is how long Drain lets the running sweep finish before
	// canceling it (default 15s).
	DrainGrace time.Duration
	// RetryAfter is the backoff hint sent with 429/503 (default 2s).
	RetryAfter time.Duration
	// CellTimeout is the per-RPC HTTP budget for dispatches (default
	// LeaseTTL + 10s, so the lease — not the transport — is the
	// authority on giving up).
	CellTimeout time.Duration
	// Logf, Logger, Metrics: as in server.Config.
	Logf    func(format string, args ...any)
	Logger  *slog.Logger
	Metrics *obs.Registry
	// NewWorkerClient builds the client for a registered worker's base
	// URL. Nil means a client.Client with a single attempt and a
	// per-worker breaker. Tests inject fakes here.
	NewWorkerClient func(baseURL string) WorkerClient
	// Budget is the shared retry budget cell re-dispatch draws from: each
	// re-dispatch after an expiry or retryable worker failure withdraws
	// one token under the "coord" layer label, and an exhausted budget
	// fails the sweep instead of re-dispatching — bounding total retry
	// amplification across the fleet no matter how many cells are
	// flapping. Nil means unlimited (the pre-budget behavior).
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed cell-result cache: a
	// sweep consults it before leasing any cell to the fleet (hits are
	// journaled as done by the pseudo-worker "memo" without a dispatch),
	// and every fleet-computed result is recorded back into it, so the
	// next sweep over overlapping cells skips them. Nil — the default —
	// dispatches every cell, which byte-identity proofs rely on.
	Memo *memo.Memo
	// FS is the filesystem every durable write goes through; nil means
	// the real one. Tests inject faultinject.FaultyFS here.
	FS durable.FS
	// Frags, if non-nil, is the coordinator's own durable span-fragment
	// log: sweep roots, queue waits, lease dispatches, and merges record
	// here. The lease-dispatch spans double as the clock-skew reference
	// the trace merge aligns worker fragments against. Nil records
	// nothing (and GET /v1/trace serves worker fragments unadjusted).
	Frags *obs.FragmentLog
	// now is the clock seam for tests, and the job host's one clock.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Minute
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 15 * time.Second
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = c.HeartbeatTimeout / 3
	}
	if c.CellRetries < 0 {
		c.CellRetries = 0
	} else if c.CellRetries == 0 {
		c.CellRetries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.StragglerFactor < 0 {
		c.StragglerFactor = 0
	} else if c.StragglerFactor == 0 {
		c.StragglerFactor = 3
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = c.LeaseTTL + 10*time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// worker is one registered deesimd instance.
type worker struct {
	id       string
	url      string
	slots    int
	state    string // last advertised tri-state (or "lost")
	inflight int    // worker-reported cells executing
	lastBeat time.Time
	lost     bool // heartbeat stale beyond HeartbeatTimeout
	leases   int  // coordinator-side outstanding leases
	client   WorkerClient
}

// WorkerStatus is the fleet API's JSON rendering of a worker.
type WorkerStatus struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"` // ready|busy|draining|lost
	Slots    int    `json:"slots"`
	Inflight int    `json:"inflight"`
	Leases   int    `json:"leases"`
	LastBeat string `json:"last_beat"` // staleness, e.g. "1.2s"
}

// sweep is the scheduler's view of the host job it runs.
type sweep struct {
	id   string
	spec server.Spec
	job  *server.Job // nil when a scheduler is driven without a host
}

// Coordinator is the distributed-sweep control plane: the shared job
// host (server.Host: admission, lanes, recovery, drain, the /v1/jobs
// API) running sweeps through the fleet executor, plus the worker
// registry. Create with New, start the runner with Start, serve
// Handler() over HTTP, stop with Drain. Sweeps run one at a time — the
// fleet is the parallelism.
type Coordinator struct {
	*server.Host
	cfg Config
	met *coordMetrics

	mu      sync.Mutex // guards the worker registry
	workers map[string]*worker
	wseq    int
}

// New builds a coordinator over StateDir, recovering sweeps a previous
// process left behind: completed ones serve their recorded results,
// incomplete ones re-queue and resume from their journals.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.NewWorkerClient == nil {
		cfg.NewWorkerClient = func(baseURL string) WorkerClient {
			c := client.New(baseURL)
			// One attempt per dispatch: the lease state machine owns cell
			// retry; the HTTP budget outlasts the lease so the lease — not
			// the transport — decides when to give up.
			c.Retry = superv.RetryPolicy{Attempts: 1}
			c.HTTP = &http.Client{Timeout: cfg.CellTimeout}
			return c
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		met:     newCoordMetrics(cfg.Metrics),
		workers: make(map[string]*worker),
	}
	h, err := server.NewHost(server.Config{
		StateDir:       cfg.StateDir,
		QueueDepth:     cfg.QueueDepth,
		Workers:        1,
		RequestTimeout: cfg.RequestTimeout,
		DrainGrace:     cfg.DrainGrace,
		RetryAfter:     cfg.RetryAfter,
		Logf:           cfg.Logf,
		Logger:         cfg.Logger,
		Metrics:        cfg.Metrics,
		FS:             cfg.FS,
		Frags:          cfg.Frags,
	}, server.Daemon{
		Name: "deesim-coord", Stage: stageCoord, Noun: "sweep", Dir: "sweeps", IDPrefix: "s",
		Series:  server.Series{Prefix: "deesim_coord", HTTP: "deesim_coord_http", Resumed: "deesim_coord_sweeps_recovered_total"},
		Execute: c.runSweep,
		Now:     cfg.now,
	})
	if err != nil {
		return nil, err
	}
	c.Host = h
	return c, nil
}

// runSweep is the fleet executor: decompose the sweep, lease and
// collect its cells under the coordinator journal, then merge — and
// prove the merge.
func (c *Coordinator) runSweep(ctx context.Context, j *server.Job) ([]byte, error) {
	sw := &sweep{id: j.ID(), spec: j.Spec(), job: j}
	ws, cfg, err := sw.spec.Resolve()
	if err != nil {
		return nil, err
	}
	tasks := experiments.MatrixTasks(ws, cfg)
	meta := experiments.MatrixMeta(ws, cfg)
	var (
		jr    *Journal
		prior *State
	)
	if err := c.ReopenJournal(j, "coord.journal",
		func(fsys durable.FS, path string) (err error) {
			jr, prior, err = ResumeFS(fsys, path, Tool, meta)
			return err
		},
		func(fsys durable.FS, path string) (err error) {
			jr, err = CreateFS(fsys, path, Tool, meta)
			return err
		}); err != nil {
		return nil, err
	}
	defer jr.Close()
	if prior != nil {
		c.met.sweepsResumed.Inc()
		c.cfg.Logf("deesim-coord: sweep %s: resuming, %s", sw.id, prior.Summary(len(tasks)))
	}

	// Memo prefill: cells the cache already holds become durable done
	// records from the pseudo-worker "memo" before any lease is granted,
	// so the fleet only computes what no prior sweep has. The journal
	// record makes the hit crash-safe the same way a real completion is.
	memoKeys := make(map[string]string)
	if c.cfg.Memo != nil {
		if prior == nil {
			prior = &State{Done: make(map[string]json.RawMessage)}
		}
		for _, t := range tasks {
			key := t.Key()
			memoKeys[key] = experiments.CellMemoKey(cfg, t)
			if _, ok := prior.Done[key]; ok {
				continue
			}
			data, ok := c.cfg.Memo.Get(memoKeys[key])
			if !ok {
				continue
			}
			if err := jr.Append(Record{Kind: KindDone, Key: key, Worker: "memo", Result: data}); err != nil {
				return nil, err
			}
			prior.Done[key] = data
		}
	}

	sched := newScheduler(c, sw, tasks, jr, prior)
	sched.memo, sched.memoKeys = c.cfg.Memo, memoKeys
	done, err := sched.run(ctx)
	if err != nil {
		return nil, err
	}
	return c.merge(ctx, sw, ws, cfg, tasks, done)
}

// merge replays the collected cell payloads through the SAME
// aggregation path a single-node run uses — RunMatrixContext with the
// full cell set as prior state executes nothing and merges everything —
// and returns the identical final encoding for the host to write. That
// construction, plus the completeness check below, is the merge proof:
// there is no coordinator-specific math to diverge.
func (c *Coordinator) merge(ctx context.Context, sw *sweep, ws []bench.Workload, cfg experiments.Config, tasks []experiments.MatrixTask, done map[string]json.RawMessage) ([]byte, error) {
	ctx, endMerge := obs.StartSpan(ctx, "merge "+sw.id, map[string]string{"sweep": sw.id})
	defer endMerge()
	for _, t := range tasks {
		if _, ok := done[t.Key()]; !ok {
			return nil, runx.Newf(runx.KindCorrupt, stageCoord, "sweep %s: merge refused: cell %s has no result", sw.id, t.Key())
		}
	}
	prior := &superv.State{Done: done}
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{Jobs: 1, Prior: prior})
	if err != nil {
		return nil, runx.Annotate(err, "sweep "+sw.id+" merge")
	}
	c.met.mergeChecks.Inc()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, runx.Newf(runx.KindUnknown, stageCoord, "sweep %s: marshal results: %w", sw.id, err)
	}
	return append(data, '\n'), nil
}

// ---- Worker registry ----

// RegisterWorker admits (or refreshes) a worker. A re-registration
// under the same URL keeps the id stable, so a restarted worker
// reclaims its identity instead of leaking registry entries.
func (c *Coordinator) RegisterWorker(url string, slots int) (id string, every time.Duration, err error) {
	url = strings.TrimRight(url, "/")
	if url == "" {
		return "", 0, runx.Newf(runx.KindInvalidInput, stageCoord, "register: empty worker url")
	}
	if slots <= 0 {
		slots = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			w.slots = slots
			w.lastBeat = c.cfg.now()
			w.lost = false
			w.state = server.WorkerReady
			c.updateWorkersLiveLocked()
			return w.id, c.cfg.HeartbeatEvery, nil
		}
	}
	c.wseq++
	id = fmt.Sprintf("w%04d", c.wseq)
	c.workers[id] = &worker{
		id:       id,
		url:      url,
		slots:    slots,
		state:    server.WorkerReady,
		lastBeat: c.cfg.now(),
		client:   c.cfg.NewWorkerClient(url),
	}
	c.updateWorkersLiveLocked()
	c.cfg.Logf("deesim-coord: worker %s registered (%s, %d slots)", id, url, slots)
	return id, c.cfg.HeartbeatEvery, nil
}

// HeartbeatWorker records a worker's beat. Unknown ids are typed
// KindInvalidInput so the worker re-registers (a coordinator restart
// empties the registry; the fleet heals itself through this path).
func (c *Coordinator) HeartbeatWorker(id, state string, inflight int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return runx.Newf(runx.KindInvalidInput, stageCoord, "heartbeat from unknown worker %q (re-register)", id)
	}
	w.lastBeat = c.cfg.now()
	w.lost = false
	w.state = state
	w.inflight = inflight
	c.met.heartbeats.Inc()
	c.updateWorkersLiveLocked()
	return nil
}

// Fleet returns every registered worker's status, sorted by id.
func (c *Coordinator) Fleet() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		st := w.state
		if w.lost || now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			st = "lost"
		}
		out = append(out, WorkerStatus{
			ID: w.id, URL: w.url, State: st,
			Slots: w.slots, Inflight: w.inflight, Leases: w.leases,
			LastBeat: now.Sub(w.lastBeat).Round(100 * time.Millisecond).String(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// workerSnap is the scheduler's race-free view of one worker: a value
// snapshot taken under the registry lock, so the event loop never
// touches live registry fields concurrently with heartbeat handlers.
type workerSnap struct {
	id     string
	slots  int
	leases int
	state  string
	lost   bool
	client WorkerClient
}

// sweepWorkers marks stale workers lost (counting each transition) and
// returns the registry snapshot the scheduler picks from.
func (c *Coordinator) sweepWorkers() []*workerSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]*workerSnap, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			w.lost = true
			c.met.workerEvictons.Inc()
			c.cfg.Logf("deesim-coord: worker %s (%s) lost: heartbeat stale by %s", w.id, w.url, now.Sub(w.lastBeat).Round(time.Millisecond))
		}
		out = append(out, &workerSnap{
			id: w.id, slots: w.slots, leases: w.leases,
			state: w.state, lost: w.lost, client: w.client,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	c.updateWorkersLiveLocked()
	return out
}

func (c *Coordinator) updateWorkersLiveLocked() {
	now := c.cfg.now()
	live := 0
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) <= c.cfg.HeartbeatTimeout {
			live++
		}
	}
	c.met.workersLive.Set(float64(live))
}

// adjustLeases moves a worker's coordinator-side outstanding-lease
// count (delta ±1) under the registry lock.
func (c *Coordinator) adjustLeases(workerID string, delta int) {
	c.mu.Lock()
	if w, ok := c.workers[workerID]; ok {
		w.leases += delta
		if w.leases < 0 {
			w.leases = 0
		}
	}
	c.mu.Unlock()
}

// noteCellDone bumps a sweep's progress counter for the status API.
func (c *Coordinator) noteCellDone(sw *sweep) {
	if sw.job != nil {
		c.CellDone(sw.job)
	}
}
