// Package server implements deesimd, the fault-tolerant simulation
// service: an HTTP/JSON API that accepts sweep submissions, runs them
// on a bounded worker pool behind a bounded admission queue, and
// survives both overload and crashes.
//
// The robustness contract, end to end:
//
//   - Admission control: a submission is accepted only if the waiting
//     queue has room; otherwise it is shed with 429 + Retry-After.
//     Accepted means durable — the job spec is fsync'd to the state
//     directory before the 202 goes out, so an accepted job is never
//     lost, even to SIGKILL one instruction later.
//   - Execution: each job runs as a crash-safe superv sweep (journal,
//     bounded cell pool, typed-error retry), under the job's own
//     wall-clock deadline propagated into runx contexts.
//   - Isolation: every HTTP request and every job runs behind panic
//     isolation; a panicking handler is a 500, never a dead daemon.
//   - Drain: SIGTERM stops admission (503), lets running jobs finish
//     within a grace period, then cancels them; queued and interrupted
//     jobs stay journaled on disk.
//   - Recovery: on restart the state directory is scanned; completed
//     jobs serve their recorded results, incomplete ones are re-queued
//     and resume from their journals, replaying finished cells instead
//     of re-simulating them.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deesim/internal/budget"
	"deesim/internal/durable"
	"deesim/internal/experiments"
	"deesim/internal/memo"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/superv"
)

// Job states reported by the status API.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted" // canceled mid-run; resumes on restart
)

// Config parameterizes the daemon.
type Config struct {
	// StateDir is the durable root: jobs/<id>/{spec.json, run.journal,
	// result.json, failed.json}.
	StateDir string
	// QueueDepth bounds the interactive admission queue — interactive
	// jobs accepted but not yet running. Submissions beyond it are shed
	// with 429 (default 8).
	QueueDepth int
	// BatchQueueDepth bounds the batch lane's own queue; batch
	// submissions beyond it shed with 429 without touching interactive
	// capacity (default QueueDepth/2, minimum 1).
	BatchQueueDepth int
	// BrownoutWatermark is the interactive queue occupancy at which the
	// server enters brownout level 1 and sheds all new batch work, even
	// under the batch quota (default QueueDepth/2, minimum 1). See
	// brownout.go for the full ladder.
	BrownoutWatermark int
	// Workers is the number of jobs run concurrently (default 1).
	Workers int
	// CellJobs is the superv worker-pool size inside each job's matrix
	// sweep (default 4).
	CellJobs int
	// CellSlots bounds concurrently-leased distributed-sweep cells
	// (POST /v1/cells); requests beyond it are shed with 429 so the
	// coordinator leases elsewhere (default = CellJobs).
	CellSlots int
	// CellTimeout caps one leased cell's execution (default 5m). The
	// coordinator's lease TTL should exceed it.
	CellTimeout time.Duration
	// JobTimeout caps any job whose spec does not set its own tighter
	// deadline (0 = none).
	JobTimeout time.Duration
	// RequestTimeout bounds each API request's context (default 10s).
	RequestTimeout time.Duration
	// DrainGrace is how long Drain lets running jobs finish before
	// canceling them (default 15s).
	DrainGrace time.Duration
	// RetryAfter is the backoff hint sent with 429/503 (default 2s).
	RetryAfter time.Duration
	// Retries/Backoff are the per-cell defaults for specs that leave
	// them unset (defaults 2 and 250ms).
	Retries int
	Backoff time.Duration
	// Logf, if non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Logger, if non-nil, receives the structured access log — one line
	// per HTTP request, shed and drain responses included. Nil discards.
	Logger *slog.Logger
	// Metrics is the registry server series register on; nil means
	// obs.Default, so one /metrics scrape covers every layer of the
	// process. Tests pass private registries to isolate their gauges.
	Metrics *obs.Registry
	// Pprof enables the net/http/pprof handlers under /debug/pprof/.
	// Off by default: profiling endpoints are debug surface, not API.
	Pprof bool
	// FS is the filesystem every durable write goes through; nil means
	// the real one. Tests inject faultinject.FaultyFS here to drive the
	// disk-fault matrix hermetically.
	FS durable.FS
	// Budget, if non-nil, is the process-wide retry budget the job
	// sweeps' cell retries draw from. Nil means unlimited retries — the
	// pre-budget behavior.
	Budget *budget.Budget
	// Memo, if non-nil, is the content-addressed result cache: repeated
	// sweeps replay cached cells, identical concurrent submissions
	// (whole specs and leased cells alike) collapse onto one in-flight
	// computation, and every caller receives byte-identical results.
	// Nil — the default — keeps every submission simulating from
	// scratch, which byte-identity-sensitive golden jobs rely on.
	Memo *memo.Memo
	// Frags, if non-nil, is the process's durable span-fragment log:
	// traced requests, queue waits, jobs, and leased cells record their
	// spans here, and GET /v1/tracefrag serves them to the coordinator's
	// timeline merge. Nil records nothing.
	Frags *obs.FragmentLog
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.BatchQueueDepth <= 0 {
		c.BatchQueueDepth = c.QueueDepth / 2
		if c.BatchQueueDepth < 1 {
			c.BatchQueueDepth = 1
		}
	}
	if c.BrownoutWatermark <= 0 {
		c.BrownoutWatermark = c.QueueDepth / 2
		if c.BrownoutWatermark < 1 {
			c.BrownoutWatermark = 1
		}
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.CellJobs <= 0 {
		c.CellJobs = 4
	}
	if c.CellSlots <= 0 {
		c.CellSlots = c.CellJobs
	}
	if c.CellTimeout <= 0 {
		c.CellTimeout = 5 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Logger == nil {
		c.Logger = obs.Discard
	}
	c.FS = durable.Or(c.FS)
	return c
}

// job is the in-memory record of one submission; all mutable fields
// are guarded by Server.mu.
type job struct {
	id         string
	spec       Spec
	class      string    // normalized priority class (spec.Class())
	deadline   time.Time // absolute SLO deadline; zero = none
	enqueued   time.Time // when the job entered its lane (queue-wait split)
	state      string
	cellsDone  int
	cellsTotal int
	resumed    bool // re-queued by crash recovery
	errText    string
	errKind    string
}

// traceCtx parses the trace context persisted with the job's spec, so
// a resumed job rejoins the trace its submission minted.
func (jb *job) traceCtx() (obs.TraceContext, bool) {
	return obs.ParseTraceparent(jb.spec.Trace)
}

// JobStatus is the status API's JSON rendering of a job. Priority and
// Deadline surface the SLO fields so a waiting client can tell a
// deadline-expired sweep from a generic failure; both are omitted for
// sweeps that never set them, keeping the wire shape old clients see
// unchanged.
type JobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	Resumed    bool   `json:"resumed,omitempty"`
	Error      string `json:"error,omitempty"`
	Kind       string `json:"kind,omitempty"`
	Priority   string `json:"priority,omitempty"`
	Deadline   string `json:"deadline,omitempty"`
}

// Server is the deesimd core: admission queue, worker pool, job
// registry, and durable state. Create with New, start workers with
// Start, serve Handler() over HTTP, and stop with Drain (graceful) or
// Close (hard, for tests).
type Server struct {
	cfg        Config
	met        *serverMetrics
	baseCtx    context.Context
	baseCancel context.CancelFunc

	cellSlots   chan struct{} // leased-cell admission (capacity CellSlots)
	cellsActive int64         // leased cells executing right now (atomic)

	// degraded is set when a durable write hits ENOSPC: the server
	// sheds new work (503, /readyz "degraded") until a probe write
	// succeeds again, so disk pressure never corrupts accepted state.
	degraded atomic.Bool

	mu           sync.Mutex
	jobs         map[string]*job
	order        []string // submission/recovery order
	waitingInt   int      // queued interactive jobs, against QueueDepth
	waitingBatch int      // queued batch jobs, against BatchQueueDepth
	seq          int
	pendInt      []*job // interactive lane, FIFO
	pendBatch    []*job // batch lane, FIFO; drained only when pendInt is empty
	wake         chan struct{}
	wakeClosed   bool
	draining     bool
	brownout     int // last published brownout level (gauge shadow)
	running      map[string]context.CancelFunc

	wg sync.WaitGroup
}

const stageServer = "server"

// New builds a server over StateDir, recovering any jobs a previous
// process left behind: completed jobs are indexed for result serving,
// incomplete ones re-queued for resumption (their journals replay
// finished cells). It does not start workers; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, runx.Newf(runx.KindInvalidInput, stageServer, "empty state directory")
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.StateDir, "jobs"), 0o755); err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, stageServer, "state dir: %w", err)
	}
	cfg.FS.SyncDir(cfg.StateDir)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		met:        newServerMetrics(cfg.Metrics),
		baseCtx:    ctx,
		baseCancel: cancel,
		cellSlots:  make(chan struct{}, cfg.CellSlots),
		jobs:       make(map[string]*job),
		running:    make(map[string]context.CancelFunc),
	}
	pending, err := s.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// Capacity covers both lanes' admission bounds plus everything
	// recovery may enqueue, so wake-token sends made while holding s.mu
	// can never block.
	s.wake = make(chan struct{}, cfg.QueueDepth+cfg.BatchQueueDepth+len(pending)+cfg.Workers)
	for _, jb := range pending {
		s.pushLocked(jb)
		s.met.jobsResumed.Inc()
		s.wake <- struct{}{}
	}
	s.updateQueueGaugesLocked()
	return s, nil
}

// pushLocked appends a job to its class's lane and bumps that lane's
// waiting count. Callers that already reserved the waiting slot at
// admission (Submit) must decrement first — the counter is owned here.
// Caller holds s.mu (or, in New, owns the server exclusively).
func (s *Server) pushLocked(jb *job) {
	if jb.class == "" {
		jb.class = jb.spec.Class()
		jb.deadline, _ = jb.spec.ParseDeadline()
	}
	if jb.enqueued.IsZero() {
		jb.enqueued = time.Now()
	}
	if jb.class == PriorityBatch {
		s.pendBatch = append(s.pendBatch, jb)
		s.waitingBatch++
	} else {
		s.pendInt = append(s.pendInt, jb)
		s.waitingInt++
	}
}

// popLocked removes and returns the next job to run — interactive
// strictly before batch — or nil when both lanes are empty. Caller
// holds s.mu.
func (s *Server) popLocked() *job {
	if len(s.pendInt) > 0 {
		jb := s.pendInt[0]
		s.pendInt = s.pendInt[1:]
		s.waitingInt--
		return jb
	}
	if len(s.pendBatch) > 0 {
		jb := s.pendBatch[0]
		s.pendBatch = s.pendBatch[1:]
		s.waitingBatch--
		return jb
	}
	return nil
}

func (s *Server) updateQueueGaugesLocked() {
	s.met.queueDepth.Set(float64(s.waitingInt + s.waitingBatch))
	s.met.queueDepthInt.Set(float64(s.waitingInt))
	s.met.queueDepthBatch.Set(float64(s.waitingBatch))
}

// recover scans the jobs directory and rebuilds the registry. Returns
// the jobs that must be re-queued (no result, no permanent failure).
// Every artifact recovery trusts is digest-verified first: a corrupt
// result.json or failed.json is quarantined and its job re-queued (the
// sweep re-runs deterministically — heal by re-execution), a corrupt
// spec.json is quarantined and the job skipped (the spec was the
// input; there is nothing to re-run from). Stale temp files from
// crashed writers are swept while no writer can be mid-flight.
func (s *Server) recover() ([]*job, error) {
	fsys := s.cfg.FS
	dir := filepath.Join(s.cfg.StateDir, "jobs")
	durable.SweepStale(fsys, dir)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, stageServer, "scan %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && e.Name() != durable.QuarantineDir {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // ids are zero-padded: lexicographic == submission order
	var pending []*job
	for _, id := range names {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil && n > s.seq {
			s.seq = n
		}
		jdir := filepath.Join(dir, id)
		durable.SweepStale(fsys, jdir)
		specData, err := durable.ReadFileVerified(fsys, filepath.Join(jdir, "spec.json"))
		if err != nil {
			if runx.IsKind(err, runx.KindCorrupt) {
				qp, _ := durable.Quarantine(fsys, filepath.Join(jdir, "spec.json"))
				s.met.quarantined.Inc()
				s.cfg.Logf("deesimd: recovery: job %s spec corrupt, quarantined to %s: %v", id, qp, err)
			} else {
				s.cfg.Logf("deesimd: recovery: job %s has no readable spec, skipping: %v", id, err)
			}
			continue
		}
		var sp Spec
		if err := json.Unmarshal(specData, &sp); err != nil {
			s.cfg.Logf("deesimd: recovery: job %s spec unparsable, skipping: %v", id, err)
			continue
		}
		jb := &job{id: id, spec: sp, cellsTotal: sp.CellsTotal()}
		resultOK := s.verifyOrQuarantine(jb, filepath.Join(jdir, "result.json"))
		failedOK := s.verifyOrQuarantine(jb, filepath.Join(jdir, "failed.json"))
		switch {
		case resultOK:
			jb.state = StateDone
			jb.cellsDone = jb.cellsTotal
		case failedOK:
			jb.state = StateFailed
			var f struct{ Error, Kind string }
			if data, err := fsys.ReadFile(filepath.Join(jdir, "failed.json")); err == nil {
				if json.Unmarshal(data, &f) == nil {
					jb.errText, jb.errKind = f.Error, f.Kind
				}
			}
		default:
			jb.state = StateQueued
			jb.resumed = true
			pending = append(pending, jb)
		}
		s.jobs[id] = jb
		s.order = append(s.order, id)
	}
	if len(pending) > 0 {
		s.cfg.Logf("deesimd: recovery: re-queued %d incomplete job(s)", len(pending))
	}
	return pending, nil
}

// verifyOrQuarantine reports whether a terminal-state artifact exists
// and passes its digest check. A corrupt artifact is quarantined and
// reported absent, which sends the job back through the run path —
// the heal-by-rerun move the integrity layer is built around.
func (s *Server) verifyOrQuarantine(jb *job, path string) bool {
	if !s.fileExists(path) {
		return false
	}
	if _, err := durable.ReadFileVerified(s.cfg.FS, path); err != nil {
		qp, qerr := durable.Quarantine(s.cfg.FS, path)
		if qerr != nil {
			s.cfg.Logf("deesimd: job %s: %s corrupt and quarantine failed (%v); treating as absent: %v", jb.id, filepath.Base(path), qerr, err)
			return false
		}
		s.met.quarantined.Inc()
		s.met.healed.Inc()
		durable.NoteHealed()
		s.cfg.Logf("deesimd: job %s: %s failed integrity check, quarantined to %s; job will re-run: %v", jb.id, filepath.Base(path), qp, err)
		return false
	}
	return true
}

// Start launches the worker pool. Idempotent per server (call once).
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for range s.wake {
		s.mu.Lock()
		if s.draining {
			// Lane contents (specs and any journals) are durable; leave
			// them queued on disk for the next process to resume.
			s.mu.Unlock()
			continue
		}
		jb := s.popLocked()
		if jb == nil {
			s.mu.Unlock()
			continue
		}
		s.updateQueueGaugesLocked()
		if !jb.deadline.IsZero() && !time.Now().Before(jb.deadline) {
			// The deadline passed while the job sat queued. Fail it
			// terminally — failed.json records kind "deadline exceeded",
			// so no restart ever silently re-dispatches it — without
			// spending a worker on a sweep nobody is waiting for.
			s.mu.Unlock()
			s.met.deadlineTimeouts.Inc()
			s.finishJob(jb, runx.Newf(runx.KindTimeout, stageServer,
				"job %s missed its deadline %s before starting", jb.id, jb.deadline.Format(time.RFC3339)))
			continue
		}
		jb.state = StateRunning
		jb.cellsDone = 0
		enqueued := jb.enqueued
		ctx, cancel := context.WithCancel(s.baseCtx)
		s.running[jb.id] = cancel
		s.met.inflight.Set(float64(len(s.running)))
		s.mu.Unlock()

		// Queue-wait vs run-time split: the wait ends here, the run
		// starts here; both series carry the job's trace as exemplar.
		tc, traced := jb.traceCtx()
		if !enqueued.IsZero() {
			s.met.queueWait.ObserveExemplar(time.Since(enqueued).Seconds(), tc.TraceID)
			if traced {
				_ = s.cfg.Frags.Append(obs.SpanFragment{
					Trace: tc.TraceID, Span: tc.Child().SpanID, Parent: tc.SpanID,
					Name:  "queue-wait " + jb.id,
					Start: enqueued.UnixNano(), End: time.Now().UnixNano(),
					Attrs: map[string]string{"job": jb.id, "class": jb.class},
				})
			}
		}
		started := time.Now()
		err := s.runJob(ctx, jb)
		cancel()
		s.met.jobRun.ObserveExemplar(time.Since(started).Seconds(), tc.TraceID)
		s.finishJob(jb, err)
	}
}

// runJob executes one job's sweep under its journal, writing
// result.json atomically on success. Resumable by construction: every
// completed cell is fsync'd to the journal before the next begins.
func (s *Server) runJob(ctx context.Context, jb *job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, "server.runJob")
		}
	}()
	// Thread the job id through the context so any structured log line
	// emitted under this sweep carries it, and rejoin the trace the
	// submission minted (persisted with the spec, so resume rejoins it
	// too) so every cell under this sweep records fragments.
	ctx = obs.WithJobID(ctx, jb.id)
	if tc, ok := jb.traceCtx(); ok {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithFragments(ctx, s.cfg.Frags)
		var endJob func()
		ctx, endJob = obs.StartSpan(ctx, "job "+jb.id, map[string]string{"job": jb.id})
		defer endJob()
	}
	ws, cfg, err := jb.spec.resolve()
	if err != nil {
		return err
	}
	timeout, err := parseDuration("timeout", jb.spec.Timeout)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = s.cfg.JobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The absolute SLO deadline rides the same context the relative
	// timeout does — whichever expires first cancels the sweep — but a
	// deadline failure is re-labeled below with the deadline timestamp,
	// so a waiting client learns *which* instant the sweep missed.
	deadline := jb.deadline
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
		defer func() {
			if err != nil && runx.IsKind(err, runx.KindTimeout) && !time.Now().Before(deadline) {
				s.met.deadlineTimeouts.Inc()
				err = runx.Newf(runx.KindTimeout, stageServer,
					"job %s exceeded its deadline %s: %w", jb.id, deadline.Format(time.RFC3339), err)
			}
		}()
	}
	backoff, err := parseDuration("backoff", jb.spec.Backoff)
	if err != nil {
		return err
	}
	if backoff <= 0 {
		backoff = s.cfg.Backoff
	}
	retries := jb.spec.Retries
	if retries <= 0 {
		retries = s.cfg.Retries
	}
	cellDelay, err := parseDuration("cell_delay", jb.spec.CellDelay)
	if err != nil {
		return err
	}

	meta := experiments.MatrixMeta(ws, cfg)
	jpath := filepath.Join(s.jobDir(jb.id), "run.journal")
	var (
		jr    *superv.Journal
		prior *superv.State
	)
	// A journal that cannot resume (corrupt record, torn header, recorded
	// under different settings) is quarantined and the job restarts from
	// scratch; a full disk returns KindUnavailable and parks the job.
	qp, cause, err := durable.ReopenLog(s.cfg.FS, jpath,
		func() (err error) {
			jr, prior, err = superv.ResumeFS(s.cfg.FS, jpath, "deesimd", meta)
			return err
		},
		func() (err error) {
			jr, err = superv.CreateFS(s.cfg.FS, jpath, "deesimd", meta)
			return err
		})
	if qp != "" {
		s.met.quarantined.Inc()
		s.met.healed.Inc()
		s.cfg.Logf("deesimd: job %s: journal unusable (%v), quarantined to %s, restarting sweep from scratch", jb.id, cause, qp)
	}
	if err != nil {
		return err
	}
	defer jr.Close()

	if prior != nil && len(prior.Done) > 0 {
		s.cfg.Logf("deesimd: job %s: resuming, %s", jb.id, prior.Summary(jb.cellsTotal))
	}
	mcfg := experiments.MatrixConfig{
		Jobs:    s.cfg.CellJobs,
		Journal: jr,
		Prior:   prior,
		Budget:  s.cfg.Budget,
		Memo:    s.cfg.Memo,
		Retry: superv.RetryPolicy{
			Attempts: retries + 1,
			Backoff:  backoff,
		},
		OnRetry: func(key string, attempt int, delay string, err error) {
			s.cfg.Logf("deesimd: job %s: retrying %s (attempt %d after %s): %v", jb.id, key, attempt, delay, err)
		},
		OnCell: func(key string, replayed bool) {
			s.mu.Lock()
			jb.cellsDone++
			s.mu.Unlock()
			if !replayed && cellDelay > 0 {
				t := time.NewTimer(cellDelay)
				select {
				case <-ctx.Done():
				case <-t.C:
				}
				t.Stop()
			}
		},
	}
	compute := func(ctx context.Context) ([]byte, error) {
		results, err := experiments.RunMatrixContext(ctx, ws, cfg, mcfg)
		if err != nil {
			return nil, err
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return nil, runx.Newf(runx.KindUnknown, stageServer, "job %s: marshal results: %w", jb.id, err)
		}
		return append(data, '\n'), nil
	}
	var data []byte
	if s.cfg.Memo != nil {
		// Whole-spec singleflight: a thundering herd of identical
		// submissions blocks on the first one's sweep and shares its
		// bytes — each job still writes (and acks) its own result.json,
		// so the per-job durability contract is unchanged.
		data, err = s.cfg.Memo.Do(ctx, experiments.SweepMemoKey(ws, cfg), compute)
		if err == nil {
			s.mu.Lock()
			jb.cellsDone = jb.cellsTotal // shared or replayed cells count as done
			s.mu.Unlock()
		}
	} else {
		data, err = compute(ctx)
	}
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(s.cfg.FS, filepath.Join(s.jobDir(jb.id), "result.json"), data); err != nil {
		if durable.IsNoSpace(err) {
			return runx.Newf(runx.KindUnavailable, stageServer, "job %s: write result: %w", jb.id, err)
		}
		return runx.Newf(runx.KindCorrupt, stageServer, "job %s: write result: %w", jb.id, err)
	}
	return nil
}

// finishJob records a job's terminal (or interrupted) state. A
// canceled job — drain or shutdown — keeps its journal and resumes on
// the next start; every other failure is permanent and recorded in
// failed.json so restarts do not retry deterministic errors.
func (s *Server) finishJob(jb *job, err error) {
	s.mu.Lock()
	delete(s.running, jb.id)
	s.met.inflight.Set(float64(len(s.running)))
	if err == nil {
		jb.state = StateDone
		s.mu.Unlock()
		s.met.jobsDone.Inc()
		s.cfg.Logf("deesimd: job %s: done (%d cells)", jb.id, jb.cellsTotal)
		return
	}
	jb.errText = err.Error()
	if e, ok := runx.As(err); ok {
		jb.errKind = e.Kind.String()
	}
	if runx.IsKind(err, runx.KindCanceled) || durable.IsNoSpace(err) {
		// Canceled (drain/shutdown) and disk-full are both transient:
		// the journal's durable prefix is intact, so the job parks as
		// interrupted and resumes on the next start instead of burning
		// a permanent failure marker.
		jb.state = StateInterrupted
		s.mu.Unlock()
		s.met.jobsIntr.Inc()
		if durable.IsNoSpace(err) {
			s.setDegraded(true)
		}
		s.cfg.Logf("deesimd: job %s: interrupted, journaled for resume: %v", jb.id, err)
		return
	}
	// The marker must be durable before StateFailed is observable:
	// anyone who sees the state (or a recovery scan after a crash
	// here) must also see failed.json, or the job re-runs rather than
	// silently resurrecting as queued.
	kind := jb.errKind
	errText := jb.errText
	s.mu.Unlock()
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
	}{errText, kind})
	if werr := durable.WriteFileAtomic(s.cfg.FS, filepath.Join(s.jobDir(jb.id), "failed.json"), append(data, '\n')); werr != nil {
		if durable.IsNoSpace(werr) {
			s.setDegraded(true)
		}
		s.cfg.Logf("deesimd: job %s: could not record failure: %v", jb.id, werr)
	}
	s.mu.Lock()
	jb.state = StateFailed
	s.mu.Unlock()
	s.met.jobsFailed.Inc()
	s.cfg.Logf("deesimd: job %s: failed permanently: %v", jb.id, err)
}

// Submit admits a job under the class-aware SLO policy: an expired
// deadline is refused outright (KindTimeout), brownout and quota
// pressure shed with KindOverload (batch first — see brownout.go),
// draining and low-disk shed with KindUnavailable. Admitted specs are
// persisted durably before the caller learns the id. Used by the HTTP
// handler and directly by tests.
func (s *Server) Submit(sp Spec) (*JobStatus, error) {
	return s.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit carrying the caller's context. The submission is
// where a job's trace is settled, in priority order: a traceparent the
// spec already carries (a coordinator or resubmitting client minted it
// upstream), else the request context's (the HTTP hop propagated it),
// else a freshly minted one — so every accepted job is traceable even
// when the client predates tracing. The settled traceparent is stamped
// into the spec before it is persisted, making the trace as durable as
// the acceptance itself.
func (s *Server) SubmitCtx(ctx context.Context, sp Spec) (*JobStatus, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	if _, ok := obs.ParseTraceparent(sp.Trace); !ok {
		tc, ok := obs.TraceContextFrom(ctx)
		if !ok {
			tc = obs.NewTrace()
		}
		sp.Trace = tc.Traceparent()
	}
	class := sp.Class()
	deadline, _ := sp.ParseDeadline() // syntax vetted by Validate
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		s.met.deadlineTimeouts.Inc()
		return nil, runx.Newf(runx.KindTimeout, stageServer,
			"deadline %s already passed at submission", deadline.Format(time.RFC3339))
	}
	if s.Degraded() {
		// Brownout level 3: reads only. Status, results, and metrics
		// keep serving; every write sheds until a probe write succeeds.
		s.met.drainSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "low disk: new job refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, stageServer,
			"low disk: shedding new jobs until durable writes succeed; retry after %s", s.cfg.RetryAfter)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.met.drainSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "draining: new job refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, stageServer, "draining: not accepting new jobs")
	}
	level := s.brownoutLocked()
	s.noteBrownoutLocked(ctx, level)
	if class == PriorityBatch {
		if level >= BrownoutShedBatch {
			s.mu.Unlock()
			s.met.sheds.Inc()
			s.met.brownoutSheds.Inc()
			s.met.classShed(class)
			obs.RecordFlight("shed", "brownout: batch job refused", map[string]string{"class": class, "level": strconv.Itoa(level)})
			return nil, runx.Newf(runx.KindOverload, stageServer,
				"brownout level %d: shedding batch work (interactive queue %d/%d); retry after %s",
				level, s.waitingInt, s.cfg.QueueDepth, s.cfg.RetryAfter)
		}
		if s.waitingBatch >= s.cfg.BatchQueueDepth {
			s.mu.Unlock()
			s.met.sheds.Inc()
			s.met.classShed(class)
			obs.RecordFlight("shed", "batch queue full", map[string]string{"class": class})
			return nil, runx.Newf(runx.KindOverload, stageServer,
				"batch queue full (%d waiting); retry after %s", s.cfg.BatchQueueDepth, s.cfg.RetryAfter)
		}
	} else if s.waitingInt >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.met.sheds.Inc()
		s.met.brownoutSheds.Inc()
		s.met.classShed(class)
		obs.RecordFlight("shed", "interactive queue full", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindOverload, stageServer,
			"brownout level %d: interactive queue full (%d waiting), deferring new work; retry after %s",
			BrownoutDeferAll, s.cfg.QueueDepth, s.cfg.RetryAfter)
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	jb := &job{id: id, spec: sp, class: class, deadline: deadline, enqueued: time.Now(), state: StateQueued, cellsTotal: sp.CellsTotal()}
	s.jobs[id] = jb
	s.order = append(s.order, id)
	if class == PriorityBatch {
		s.waitingBatch++
	} else {
		s.waitingInt++
	}
	s.updateQueueGaugesLocked()
	s.mu.Unlock()

	// Durability before acknowledgment: the spec reaches disk (fsync +
	// rename) before the caller ever learns the job id, so "accepted"
	// survives any crash.
	specData, err := json.MarshalIndent(sp, "", "  ")
	if err == nil {
		if err = s.cfg.FS.MkdirAll(s.jobDir(id), 0o755); err == nil {
			// Make the directory entry itself durable before the spec
			// rename that depends on it — the fsync a bare MkdirAll
			// forgets.
			s.cfg.FS.SyncDir(filepath.Join(s.cfg.StateDir, "jobs"))
			err = durable.WriteFileAtomic(s.cfg.FS, filepath.Join(s.jobDir(id), "spec.json"), append(specData, '\n'))
		}
	}
	if err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		s.order = s.order[:len(s.order)-1]
		if class == PriorityBatch {
			s.waitingBatch--
		} else {
			s.waitingInt--
		}
		s.updateQueueGaugesLocked()
		s.mu.Unlock()
		if durable.IsNoSpace(err) {
			// Ack nothing we cannot persist: the submission is refused,
			// previously-acked state is untouched, and the server sheds
			// until a probe write clears the pressure.
			s.setDegraded(true)
			return nil, runx.Newf(runx.KindUnavailable, stageServer, "persist job %s: %w", id, err)
		}
		return nil, runx.Newf(runx.KindCorrupt, stageServer, "persist job %s: %w", id, err)
	}

	s.mu.Lock()
	if !s.wakeClosed {
		// The waiting slot was reserved at admission; only the lane
		// append happens here. Wake capacity was reserved too, so the
		// token send never blocks.
		if class == PriorityBatch {
			s.pendBatch = append(s.pendBatch, jb)
		} else {
			s.pendInt = append(s.pendInt, jb)
		}
		s.wake <- struct{}{}
	}
	// If admission closed between reserve and here, the job stays on
	// disk and the next process resumes it — accepted is accepted.
	st := statusLocked(jb)
	s.mu.Unlock()
	s.met.accepted.Inc()
	s.cfg.Logf("deesimd: job %s: accepted (%d cells)", id, jb.cellsTotal)
	return st, nil
}

// Status returns a job's status snapshot.
func (s *Server) Status(id string) (*JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return statusLocked(jb), true
}

// List returns every job's status in submission order.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, statusLocked(s.jobs[id]))
	}
	return out
}

func statusLocked(jb *job) *JobStatus {
	st := &JobStatus{
		ID:         jb.id,
		State:      jb.state,
		CellsDone:  jb.cellsDone,
		CellsTotal: jb.cellsTotal,
		Resumed:    jb.resumed,
		Error:      jb.errText,
		Kind:       jb.errKind,
	}
	if jb.spec.Priority != "" {
		st.Priority = jb.spec.Class()
	}
	st.Deadline = jb.spec.Deadline
	return st
}

// ResultPath returns the path of a done job's result file.
func (s *Server) ResultPath(id string) string {
	return filepath.Join(s.jobDir(id), "result.json")
}

// Draining reports whether drain has begun (readyz turns 503).
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: admission closes (new submissions
// are shed with 503), running jobs get DrainGrace to finish, then
// their contexts are canceled — which journals their progress for the
// next start. Queued-but-unstarted jobs are left durably on disk.
// Returns once every worker has exited. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if !s.wakeClosed {
			close(s.wake)
			s.wakeClosed = true
		}
	}
	s.mu.Unlock()
	s.cfg.Logf("deesimd: draining: admission closed, waiting up to %s for running jobs", s.cfg.DrainGrace)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		s.cfg.Logf("deesimd: drain grace expired, canceling running jobs (progress stays journaled)")
		s.cancelRunning()
		<-done
	case <-ctx.Done():
		s.cfg.Logf("deesimd: drain aborted by caller, canceling running jobs")
		s.cancelRunning()
		<-done
	}
	s.baseCancel()
	s.logDrainSummary()
	return nil
}

func (s *Server) cancelRunning() {
	s.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(s.running))
	for _, c := range s.running {
		cancels = append(cancels, c)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

func (s *Server) logDrainSummary() {
	s.mu.Lock()
	counts := map[string]int{}
	for _, jb := range s.jobs {
		counts[jb.state]++
	}
	s.mu.Unlock()
	s.cfg.Logf("deesimd: drained: %d done, %d failed, %d interrupted, %d queued (interrupted/queued resume on restart)",
		counts[StateDone], counts[StateFailed], counts[StateInterrupted], counts[StateQueued])
}

// Close hard-stops the server: cancels everything and waits for the
// workers. For tests; production shutdown is Drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	if !s.wakeClosed {
		close(s.wake)
		s.wakeClosed = true
	}
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

func (s *Server) jobDir(id string) string {
	return filepath.Join(s.cfg.StateDir, "jobs", id)
}

func (s *Server) fileExists(path string) bool {
	_, err := s.cfg.FS.Stat(path)
	return err == nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// requeueForHeal sends a job whose terminal artifact was quarantined
// back through the run path. If the queue is closed or full the job
// parks as interrupted instead and the next process heals it — either
// way no state is lost. Reports whether an in-process re-run was
// scheduled.
func (s *Server) requeueForHeal(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	if !ok {
		return false
	}
	if s.wakeClosed || s.draining {
		jb.state = StateInterrupted
		return false
	}
	select {
	case s.wake <- struct{}{}:
		jb.state = StateQueued
		jb.resumed = true
		jb.cellsDone = 0
		jb.errText, jb.errKind = "", ""
		s.pushLocked(jb)
		s.updateQueueGaugesLocked()
		return true
	default:
		jb.state = StateInterrupted
		return false
	}
}

// Degraded reports whether the server is in low-disk degraded mode.
// While degraded it probes with a tiny durable write; the first probe
// that succeeds clears the state, so recovery needs no operator action
// beyond freeing space.
func (s *Server) Degraded() bool {
	if !s.degraded.Load() {
		return false
	}
	if s.probeDisk() {
		s.setDegraded(false)
		return false
	}
	return true
}

func (s *Server) setDegraded(on bool) {
	was := s.degraded.Swap(on)
	if was == on {
		return
	}
	if on {
		s.met.lowDisk.Set(1)
		durable.SetLowDisk(true)
		s.cfg.Logf("deesimd: durable write hit ENOSPC; entering degraded mode (shedding new work, previously-acked state intact)")
	} else {
		s.met.lowDisk.Set(0)
		durable.SetLowDisk(false)
		s.cfg.Logf("deesimd: disk probe succeeded; leaving degraded mode")
	}
	// Degraded is brownout level 3 (reads only); publish the transition.
	s.noteReadsOnly(on)
}

// probeDisk attempts a tiny durable write in the state dir.
func (s *Server) probeDisk() bool {
	path := filepath.Join(s.cfg.StateDir, ".diskprobe")
	f, err := s.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("ok\n"))
	serr := f.Sync()
	cerr := f.Close()
	s.cfg.FS.Remove(path)
	return werr == nil && serr == nil && cerr == nil
}
