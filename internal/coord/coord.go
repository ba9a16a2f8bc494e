// Package coord is the distributed-sweep control plane: a coordinator
// that runs a matrix sweep through the same RunMatrixContext a
// single-node run uses, but computes each cell by leasing it to a
// registered deesimd worker instead of simulating it locally. Leases
// are time-bounded; a lease whose worker crashes, partitions or stalls
// expires, and the cell is retried like any failed attempt. Because the
// journal, retry, memo and merge are the single-node ones, the merged
// tables are byte-identical.
//
// Admission, priority lanes and brownout, recovery, drain, low-disk
// mode and the /v1/jobs API are the job host deesimd runs on too
// (server.Host); this package supplies the host's fleet executor (the
// leased-cell executor and the merge) and the worker registry.
//
// Durability is superv's: the sweep journal is a superv journal under
// the tool name Tool, every attempt start and completion one fsync'd
// record, so a SIGKILL'd coordinator resumes its sweep without
// re-running finished cells.
package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

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

// Tool is the tool name in every coordinator journal header.
const Tool = "deesim-coord"

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
	// (default 2). Lease expiries and retryable worker errors are both
	// failed attempts and consume the same budget.
	CellRetries int
	// Backoff seeds the per-cell re-dispatch backoff (superv's capped
	// seeded-jitter policy; default 250ms).
	Backoff time.Duration
	// StragglerFactor triggers speculation: while no cell waits for a
	// slot, a lease running longer than factor × the median completed
	// cell duration gets one speculative duplicate on another worker
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
	// Logger, Metrics: as in server.Config. The coordinator adds its
	// fleet events: worker registration at Info; lease expiry,
	// stragglers, re-dispatches and lost workers at Warn.
	Logger  *slog.Logger
	Metrics *obs.Registry
	// NewWorkerClient builds the client for a registered worker's base
	// URL. Nil means a client.Client with a single attempt and a
	// per-worker breaker. Tests inject fakes here.
	NewWorkerClient func(baseURL string) WorkerClient
	// Budget is the shared retry budget cell re-dispatch draws from: each
	// re-dispatch after an expiry or retryable worker failure is a superv
	// retry and withdraws one token under the "superv" layer label; an
	// exhausted budget fails the sweep instead of re-dispatching —
	// bounding total retry amplification across the fleet no matter how
	// many cells are flapping. Nil means unlimited.
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed cell-result cache: each
	// cell consults it before it is leased (a hit is journaled done
	// without a dispatch), and every fleet-computed result is recorded
	// back into it, so the next sweep over overlapping cells skips them.
	// Nil — the default — dispatches every cell, which byte-identity
	// proofs rely on.
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
	if c.Logger == nil {
		c.Logger = obs.Discard
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// worker is one registered deesimd instance. id, url and client never
// change after registration; the rest is guarded by Coordinator.mu.
type worker struct {
	id       string
	url      string
	slots    int
	state    string // last advertised tri-state
	inflight int    // worker-reported cells executing
	lastBeat time.Time
	lost     bool   // heartbeat stale beyond HeartbeatTimeout
	leases   int    // coordinator-side outstanding leases
	lastSeq  uint64 // grant sequence number of its latest lease
	// inputs are the experiments.InputKeys of its latest leases, at
	// most slots distinct ones, most recent last. A worker's input pool
	// keeps at least the last CellSlots distinct inputs it was leased
	// (server.Server), so it can run their next cells without
	// rebuilding them.
	inputs []string
	client WorkerClient
}

// held returns the inputs w can be counted on to hold: a lost or
// draining worker holds nothing.
func (w *worker) held() []string {
	if w.lost || w.state == server.WorkerDraining {
		return nil
	}
	return w.inputs
}

func (w *worker) holds(input string) bool { return slices.Contains(w.held(), input) }

// leased records input as w's most recent, keeping its last w.slots
// distinct inputs. An empty key (an input never shared) is not kept.
func (w *worker) leased(input string) {
	if input == "" {
		return
	}
	w.inputs = append(slices.DeleteFunc(w.inputs, func(in string) bool { return in == input }), input)
	if n := len(w.inputs) - w.slots; n > 0 {
		w.inputs = slices.Delete(w.inputs, 0, n)
	}
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
	leases  int           // outstanding leases, fleet-wide
	grants  uint64        // leases granted, fleet-wide
	changed chan struct{} // closed and replaced when a slot may have freed
	// Dispatch order of the running sweep (one runs at a time): inputs
	// holds each task's input key; waiting holds the task indices of
	// cells waiting for a slot, ascending; seen marks tasks that reached
	// the executor or merged without it; front is the lowest task index
	// not yet seen. plan is pickLocked's view of them and of the fleet,
	// worked out once per change; nil when stale.
	inputs  []string
	waiting []int
	seen    []bool
	front   int
	plan    *plan
}

// New builds a coordinator over StateDir, recovering sweeps a previous
// process left behind: completed ones serve their recorded results,
// incomplete ones re-queue and resume from their journals.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.NewWorkerClient == nil {
		cfg.NewWorkerClient = func(baseURL string) WorkerClient {
			c := client.New(baseURL)
			// One attempt per dispatch: superv owns cell retry; the HTTP
			// budget outlasts the lease so the lease — not the transport —
			// decides when to give up.
			c.Retry = superv.RetryPolicy{Attempts: 1}
			c.HTTP = &http.Client{Timeout: cfg.CellTimeout}
			return c
		}
	}
	c := &Coordinator{
		cfg:     cfg,
		met:     newCoordMetrics(cfg.Metrics),
		workers: make(map[string]*worker),
		changed: make(chan struct{}),
	}
	h, err := server.NewHost(server.Config{
		StateDir:       cfg.StateDir,
		QueueDepth:     cfg.QueueDepth,
		Workers:        1,
		RequestTimeout: cfg.RequestTimeout,
		DrainGrace:     cfg.DrainGrace,
		RetryAfter:     cfg.RetryAfter,
		Logger:         cfg.Logger,
		Metrics:        cfg.Metrics,
		FS:             cfg.FS,
		Frags:          cfg.Frags,
	}, server.Daemon{
		Stage: stageCoord, Noun: "sweep", Dir: "sweeps", IDPrefix: "s",
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

// runSweep is the fleet executor, the same shape as deesimd's: one
// RunMatrixContext under a superv journal, with each cell computed by
// the leased-cell executor instead of a local simulator. Journal,
// retry, retry budget, memo and merge are therefore the single-node
// ones.
func (c *Coordinator) runSweep(ctx context.Context, j *server.Job) ([]byte, error) {
	sp := j.Spec()
	ws, cfg, err := sp.Resolve()
	if err != nil {
		return nil, err
	}
	tasks := experiments.MatrixTasks(ws, cfg)
	meta := experiments.MatrixMeta(ws, cfg)
	var (
		jr    *superv.Journal
		prior *superv.State
	)
	if err := c.ReopenJournal(j, "coord.journal",
		func(fsys durable.FS, path string) (err error) {
			jr, prior, err = superv.ResumeFS(fsys, path, Tool, meta)
			return err
		},
		func(fsys durable.FS, path string) (err error) {
			jr, err = superv.CreateFS(fsys, path, Tool, meta)
			return err
		}); err != nil {
		return nil, err
	}
	defer jr.Close()
	if prior != nil {
		c.met.sweepsResumed.Inc()
		c.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "resuming", slog.String("progress", prior.Summary(len(tasks))))
	}

	retries := sp.Retries
	if retries <= 0 {
		retries = c.cfg.CellRetries
	}
	backoff := c.cfg.Backoff
	if d, err := server.ParseDuration("backoff", sp.Backoff); err == nil && d > 0 {
		backoff = d
	}
	sw := &sweep{c: c, id: j.ID(), spec: sp, index: make(map[string]int), attempts: make([]int, len(tasks))}
	inputs := make([]string, len(tasks))
	for i, t := range tasks {
		sw.index[t.Key()] = i
		inputs[i] = experiments.InputKey(cfg, t)
	}
	c.order(inputs)
	merged := 0
	results, err := experiments.RunMatrixContext(ctx, ws, cfg, experiments.MatrixConfig{
		// Every cell waits for its slot concurrently: the fleet, not a
		// local pool, bounds how many run at once.
		Jobs:    len(tasks),
		Retry:   superv.RetryPolicy{Attempts: retries + 1, Backoff: backoff},
		Journal: jr,
		Prior:   prior,
		Budget:  c.cfg.Budget,
		Memo:    c.cfg.Memo,
		Exec:    sw.runCell,
		OnCell: func(key string, _ bool) {
			merged++
			c.see(sw.index[key])
			c.CellDone(j)
		},
		OnRetry: func(key string, attempt int, delay string, err error) {
			c.met.redispatches.Inc()
			c.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "cell attempt failed, re-dispatching",
				slog.String("cell", key), slog.Int("attempt", attempt-1), slog.String("delay", delay), slog.Any("err", err))
		},
	})
	if err != nil {
		if errors.Is(err, superv.ErrBudgetExhausted) {
			c.met.budgetDenied.Inc()
		}
		return nil, err
	}
	return c.merge(ctx, sw.id, len(tasks), merged, results)
}

// merge encodes the folded results exactly as deesimd does. The fold
// is RunMatrixContext's own, so there is no coordinator-specific math
// to diverge; the proof left to make is that every cell was folded in.
func (c *Coordinator) merge(ctx context.Context, id string, total, merged int, results []*experiments.WorkloadResult) ([]byte, error) {
	_, endMerge := obs.StartSpan(ctx, "merge "+id, map[string]string{"sweep": id})
	defer endMerge()
	if merged != total {
		return nil, runx.Newf(runx.KindCorrupt, stageCoord, "sweep %s: merge refused: %d of %d cells have a result", id, merged, total)
	}
	c.met.mergeChecks.Inc()
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return nil, runx.Newf(runx.KindUnknown, stageCoord, "sweep %s: marshal results: %w", id, err)
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
			w.inputs = nil // a re-registering worker restarted empty
			c.changedLocked()
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
	c.changedLocked()
	c.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "worker registered",
		slog.String("worker", id), slog.String("url", url), slog.Int("slots", slots))
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
	c.changedLocked()
	return nil
}

// Fleet returns every registered worker's status, sorted by id.
func (c *Coordinator) Fleet() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	now := c.cfg.now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		st := w.state
		if w.lost {
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

// reapLocked marks workers whose heartbeat went stale lost, counting
// each transition, and republishes the live-worker gauge.
func (c *Coordinator) reapLocked() {
	now := c.cfg.now()
	live := 0
	for _, w := range c.workers {
		if !w.lost && now.Sub(w.lastBeat) > c.cfg.HeartbeatTimeout {
			w.lost = true
			c.plan = nil
			c.met.workerEvictons.Inc()
			c.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "worker lost: heartbeat stale",
				slog.String("worker", w.id), slog.String("url", w.url), slog.Duration("stale", now.Sub(w.lastBeat).Round(time.Millisecond)))
		}
		if !w.lost {
			live++
		}
	}
	c.met.workersLive.Set(float64(live))
}

// changedLocked wakes every cell waiting for a slot: a lease ended or
// a worker registered or beat, so one may have become eligible.
func (c *Coordinator) changedLocked() {
	c.plan = nil
	c.reapLocked()
	close(c.changed)
	c.changed = make(chan struct{})
}

// lost reports whether a worker's heartbeat has gone stale.
func (c *Coordinator) lost(w *worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked()
	return w.lost
}

// order starts a sweep's dispatch order over its tasks' input keys.
func (c *Coordinator) order(inputs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inputs, c.seen, c.front, c.plan = inputs, make([]bool, len(inputs)), 0, nil
}

// see marks task i as having reached the executor or merged without it
// (replayed, or served by the memo).
func (c *Coordinator) see(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seeLocked(i)
}

func (c *Coordinator) seeLocked(i int) {
	c.seen[i] = true
	for c.front < len(c.seen) && c.seen[c.front] {
		c.front++
	}
	c.changedLocked()
}

// acquire takes a lease slot for cell task (its index in the sweep)
// and records the cell's input as the worker's. It waits until a slot
// frees or ctx ends; pickLocked says which slot a cell may take. A
// speculative duplicate of the cell (skip, the worker running the
// original, non-nil) never waits: it takes the least-loaded free
// worker other than skip, or gets nil when none is free.
func (c *Coordinator) acquire(ctx context.Context, skip *worker, task int) (*worker, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if skip == nil {
		c.waiting = slices.Insert(c.waiting, sort.SearchInts(c.waiting, task), task)
		c.seeLocked(task)
		defer func() {
			i := sort.SearchInts(c.waiting, task)
			c.waiting = slices.Delete(c.waiting, i, i+1)
			c.met.pendingCells.Set(float64(len(c.waiting)))
			c.changedLocked() // the next cell in line may go
		}()
	}
	for {
		c.reapLocked()
		var w *worker
		if skip != nil {
			w = c.freeLocked(skip, nil)
		} else {
			w = c.pickLocked(task)
		}
		if w != nil {
			c.grants++
			w.lastSeq = c.grants
			w.leases++
			w.leased(c.inputs[task])
			c.plan = nil // a speculative grant is no change: nothing wakes
			c.leases++
			c.met.leasesActive.Set(float64(c.leases))
			return w, nil
		}
		if skip != nil {
			return nil, nil
		}
		c.met.pendingCells.Set(float64(len(c.waiting)))
		changed := c.changed
		c.mu.Unlock()
		select {
		case <-ctx.Done():
		case <-changed:
		}
		c.mu.Lock()
		if err := runx.CtxErr(ctx, stageLease); err != nil {
			return nil, err
		}
	}
}

// pickLocked is the one dispatch rule: the free worker waiting cell
// task may lease now, or nil if it must wait.
//
//   - Affinity: a free worker holding the cell's input takes that
//     input's earliest waiting cell, so the input is not built twice.
//   - Task order: otherwise cells go in task order, skipping any cell
//     whose input a live worker holds — that cell goes to the holder
//     when the holder frees. The first cell not skipped (the head) may
//     go once every earlier task has been seen, so whichever cell's
//     goroutine starts first cannot jump the queue. It takes a free
//     worker no waiting cell is saving for its input.
//   - Work conservation: if every waiting cell's input is held and
//     every task has been seen, plain task order resumes, so a free
//     worker never idles while a cell it is not saved for waits.
func (c *Coordinator) pickLocked(task int) *worker {
	p := c.planLocked()
	input := c.inputs[task]
	if p.earliest[input] == task && p.held[input] {
		if w := c.freeLocked(nil, func(w *worker) bool { return w.holds(input) }); w != nil {
			return w
		}
	}
	if task != p.head || task >= c.front {
		return nil
	}
	return c.freeLocked(nil, p.unsaved)
}

// plan is what pickLocked reads of the waiting cells and the fleet.
// Every waiting cell wakes on every change, so planLocked works it out
// once per change, and each woken cell only looks itself up.
type plan struct {
	earliest map[string]int  // each waiting input's lowest waiting task
	held     map[string]bool // inputs a live, non-draining worker holds
	head     int             // the cell task order may lease, or -1
}

// planLocked returns the current plan, working it out if stale.
func (c *Coordinator) planLocked() *plan {
	if c.plan != nil {
		return c.plan
	}
	p := &plan{earliest: make(map[string]int), held: make(map[string]bool), head: -1}
	for _, w := range c.workers {
		for _, in := range w.held() {
			p.held[in] = true
		}
	}
	for _, i := range c.waiting {
		in := c.inputs[i]
		if _, ok := p.earliest[in]; !ok {
			p.earliest[in] = i
		}
		if p.head < 0 && !p.held[in] {
			p.head = i
		}
	}
	if p.head < 0 && len(c.waiting) > 0 && c.front == len(c.seen) {
		p.head = c.waiting[0]
	}
	c.plan = p
	return p
}

// unsaved reports whether no waiting cell is saving w for its input.
func (p *plan) unsaved(w *worker) bool {
	for _, in := range w.inputs {
		if _, ok := p.earliest[in]; ok {
			return false
		}
	}
	return true
}

// freeLocked returns the least-loaded live, non-draining worker with a
// free slot, other than skip and passing ok (nil passes all); ties go
// to the worker leased least recently, then to the lowest id, so cells
// that arrive one at a time still spread across the fleet.
func (c *Coordinator) freeLocked(skip *worker, ok func(*worker) bool) *worker {
	var best *worker
	for _, w := range c.workers {
		if w == skip || w.lost || w.state == server.WorkerDraining || w.leases >= w.slots || ok != nil && !ok(w) {
			continue
		}
		if best == nil || w.leases < best.leases || w.leases == best.leases &&
			(w.lastSeq < best.lastSeq || w.lastSeq == best.lastSeq && w.id < best.id) {
			best = w
		}
	}
	return best
}

// release returns a lease slot taken by acquire.
func (c *Coordinator) release(w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.leases--
	c.leases--
	c.met.leasesActive.Set(float64(c.leases))
	c.changedLocked()
}

// idle reports whether no cell is waiting for a slot — the condition
// under which straggler speculation may spend one.
func (c *Coordinator) idle() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiting) == 0
}
