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

	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Host is the one job host both daemons run on: deesimd executes each
// admitted sweep locally, deesim-coord leases its cells across a fleet,
// and everything else is shared and lives here —
//
//   - the job registry, id sequence, and the interactive/batch lanes
//     behind the brownout ladder (brownout.go), fed by a wake-token
//     worker loop;
//   - durability before acknowledgment: the spec is fsync'd under
//     StateDir/<Dir>/<id> before the caller learns the id;
//   - the per-job run context (job id, trace span, Timeout, Deadline),
//     the atomic result.json write, and the terminal-state rules;
//   - recovery (verify or quarantine every artifact, re-queue anything
//     unfinished), heal-by-requeue of a result that rots at read time,
//     drain/close, and low-disk degraded mode;
//   - the HTTP middleware and the /v1/jobs, /healthz, /metrics and
//     /versionz routes (host_http.go).
//
// A daemon supplies only a Daemon: its naming table, its executor, and
// its clock.
type Host struct {
	cfg        Config
	d          Daemon
	now        func() time.Time
	met        *hostMetrics
	baseCtx    context.Context
	baseCancel context.CancelFunc

	// degraded is set when a durable write hits ENOSPC: the host sheds
	// new work (503, reads only) until a probe write succeeds again, so
	// disk pressure never corrupts accepted state.
	degraded atomic.Bool

	mu           sync.Mutex
	jobs         map[string]*Job
	order        []string // submission/recovery order
	waitingInt   int      // queued interactive jobs, against QueueDepth
	waitingBatch int      // queued batch jobs, against BatchQueueDepth
	seq          int
	pendInt      []*Job // interactive lane, FIFO
	pendBatch    []*Job // batch lane, FIFO; drained only when pendInt is empty
	wake         chan struct{}
	wakeClosed   bool
	draining     bool
	brownout     int // last published brownout level (gauge shadow)
	running      map[string]context.CancelFunc

	wg sync.WaitGroup
}

// Executor turns an admitted job into its result bytes, which the host
// writes atomically to result.json. It runs under the job's context
// (deadline, timeout, trace) and must return ctx's typed error when
// canceled, so drain parks the job instead of failing it.
type Executor func(ctx context.Context, j *Job) ([]byte, error)

// Daemon is what one daemon supplies to the shared host. The naming
// fields are fixed in code per daemon, so log attributes, error
// stages, span names and metric series stay distinct when both run in
// one process.
type Daemon struct {
	Stage    string // runx stage of host errors
	Noun     string // what a job is called in messages, span names, and span and log attrs
	Dir      string // jobs live under StateDir/Dir/<id>
	IDPrefix string // job ids are IDPrefix followed by six digits
	Series   Series
	Execute  Executor
	Now      func() time.Time // the host's one clock; nil means time.Now
}

// Series names a host's metric series. Per-job series are
// Prefix_<noun>s_* (deesim_server_jobs_done_total), the rest Prefix_*
// (deesim_server_queue_depth); HTTP names the per-endpoint request
// series and Resumed the recovery re-queue counter.
type Series struct {
	Prefix, HTTP, Resumed string
}

// Job is the host's record of one submission; all mutable fields are
// guarded by Host.mu.
type Job struct {
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

// ID returns the job's id.
func (j *Job) ID() string { return j.id }

// Spec returns the job's persisted spec, trace included.
func (j *Job) Spec() Spec { return j.spec }

// traceCtx parses the trace context persisted with the job's spec, so
// a resumed job rejoins the trace its submission minted.
func (j *Job) traceCtx() (obs.TraceContext, bool) {
	return obs.ParseTraceparent(j.spec.Trace)
}

// NewHost builds a host over cfg.StateDir, recovering any jobs a
// previous process left behind: completed jobs are indexed for result
// serving, incomplete ones re-queued (their executors resume from
// their journals). It does not start workers; call Start.
func NewHost(cfg Config, d Daemon) (*Host, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, runx.Newf(runx.KindInvalidInput, d.Stage, "empty state directory")
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.StateDir, d.Dir), 0o755); err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, d.Stage, "state dir: %w", err)
	}
	cfg.FS.SyncDir(cfg.StateDir)
	ctx, cancel := context.WithCancel(context.Background())
	h := &Host{
		cfg:        cfg,
		d:          d,
		now:        d.Now,
		met:        newHostMetrics(cfg.Metrics, d),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		running:    make(map[string]context.CancelFunc),
	}
	if h.now == nil {
		h.now = time.Now
	}
	pending, err := h.recover()
	if err != nil {
		cancel()
		return nil, err
	}
	// Capacity covers both lanes' admission bounds plus everything
	// recovery may enqueue, so wake-token sends made while holding h.mu
	// can never block.
	h.wake = make(chan struct{}, cfg.QueueDepth+cfg.BatchQueueDepth+len(pending)+cfg.Workers)
	for _, jb := range pending {
		h.pushLocked(jb)
		h.met.resumed.Inc()
		h.wake <- struct{}{}
	}
	h.updateQueueGaugesLocked()
	return h, nil
}

// pushLocked appends a job to its class's lane and bumps that lane's
// waiting count. Callers that already reserved the waiting slot at
// admission (Submit) must decrement first — the counter is owned here.
// Caller holds h.mu (or, in NewHost, owns the host exclusively).
func (h *Host) pushLocked(jb *Job) {
	if jb.class == "" {
		jb.class = jb.spec.Class()
		jb.deadline, _ = jb.spec.ParseDeadline()
	}
	if jb.enqueued.IsZero() {
		jb.enqueued = h.now()
	}
	if jb.class == PriorityBatch {
		h.pendBatch = append(h.pendBatch, jb)
		h.waitingBatch++
	} else {
		h.pendInt = append(h.pendInt, jb)
		h.waitingInt++
	}
}

// popLocked removes and returns the next job to run — interactive
// strictly before batch — or nil when both lanes are empty. Caller
// holds h.mu.
func (h *Host) popLocked() *Job {
	if len(h.pendInt) > 0 {
		jb := h.pendInt[0]
		h.pendInt = h.pendInt[1:]
		h.waitingInt--
		return jb
	}
	if len(h.pendBatch) > 0 {
		jb := h.pendBatch[0]
		h.pendBatch = h.pendBatch[1:]
		h.waitingBatch--
		return jb
	}
	return nil
}

func (h *Host) updateQueueGaugesLocked() {
	h.met.queueDepth.Set(float64(h.waitingInt + h.waitingBatch))
	h.met.queueDepthInt.Set(float64(h.waitingInt))
	h.met.queueDepthBatch.Set(float64(h.waitingBatch))
}

// recover scans the jobs directory and rebuilds the registry. Returns
// the jobs that must be re-queued (no result, no permanent failure).
// Every artifact recovery trusts is digest-verified first: a corrupt
// result.json or failed.json is quarantined and its job re-queued (the
// sweep re-runs deterministically — heal by re-execution), a corrupt
// spec.json is quarantined and the job skipped (the spec was the
// input; there is nothing to re-run from). Stale temp files from
// crashed writers are swept while no writer can be mid-flight.
func (h *Host) recover() ([]*Job, error) {
	fsys := h.cfg.FS
	dir := filepath.Join(h.cfg.StateDir, h.d.Dir)
	durable.SweepStale(fsys, dir)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, runx.Newf(runx.KindInvalidInput, h.d.Stage, "scan %s: %w", dir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() && e.Name() != durable.QuarantineDir {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // ids are zero-padded: lexicographic == submission order
	var pending []*Job
	for _, id := range names {
		if n, err := strconv.Atoi(strings.TrimPrefix(id, h.d.IDPrefix)); err == nil && n > h.seq {
			h.seq = n
		}
		jdir := filepath.Join(dir, id)
		durable.SweepStale(fsys, jdir)
		specData, err := durable.ReadFileVerified(fsys, filepath.Join(jdir, "spec.json"))
		if err != nil {
			if runx.IsKind(err, runx.KindCorrupt) {
				qp, _ := durable.Quarantine(fsys, filepath.Join(jdir, "spec.json"))
				h.met.quarantined.Inc()
				h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "recovery: spec corrupt, quarantined",
					slog.String(h.d.Noun, id), slog.String("quarantine", qp), slog.Any("err", err))
			} else {
				h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "recovery: no readable spec, skipping",
					slog.String(h.d.Noun, id), slog.Any("err", err))
			}
			continue
		}
		var sp Spec
		if err := json.Unmarshal(specData, &sp); err != nil {
			h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "recovery: spec unparsable, skipping",
				slog.String(h.d.Noun, id), slog.Any("err", err))
			continue
		}
		jb := &Job{id: id, spec: sp, cellsTotal: sp.CellsTotal()}
		resultOK := h.verifyOrQuarantine(jb, filepath.Join(jdir, "result.json"))
		failedOK := h.verifyOrQuarantine(jb, filepath.Join(jdir, "failed.json"))
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
		h.jobs[id] = jb
		h.order = append(h.order, id)
	}
	if len(pending) > 0 {
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "recovery: re-queued incomplete "+h.d.Noun+"s",
			slog.Int("count", len(pending)))
	}
	return pending, nil
}

// verifyOrQuarantine reports whether a terminal-state artifact exists
// and passes its digest check. A corrupt artifact is quarantined and
// reported absent, which sends the job back through the run path —
// the heal-by-rerun move the integrity layer is built around.
func (h *Host) verifyOrQuarantine(jb *Job, path string) bool {
	if _, err := h.cfg.FS.Stat(path); err != nil {
		return false
	}
	if _, err := durable.ReadFileVerified(h.cfg.FS, path); err != nil {
		qp, qerr := durable.Quarantine(h.cfg.FS, path)
		if qerr != nil {
			h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "artifact corrupt and quarantine failed; treating as absent",
				slog.String(h.d.Noun, jb.id), slog.String("file", filepath.Base(path)), slog.Any("err", err), slog.Any("quarantine_err", qerr))
			return false
		}
		h.met.quarantined.Inc()
		h.met.healed.Inc()
		durable.NoteHealed()
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "artifact failed integrity check, quarantined; "+h.d.Noun+" will re-run",
			slog.String(h.d.Noun, jb.id), slog.String("file", filepath.Base(path)), slog.String("quarantine", qp), slog.Any("err", err))
		return false
	}
	return true
}

// Start launches the worker pool. Call once.
func (h *Host) Start() {
	for i := 0; i < h.cfg.Workers; i++ {
		h.wg.Add(1)
		go h.worker()
	}
}

func (h *Host) worker() {
	defer h.wg.Done()
	for range h.wake {
		h.mu.Lock()
		if h.draining {
			// Lane contents (specs and any journals) are durable; leave
			// them queued on disk for the next process to resume.
			h.mu.Unlock()
			continue
		}
		jb := h.popLocked()
		if jb == nil {
			h.mu.Unlock()
			continue
		}
		h.updateQueueGaugesLocked()
		if !jb.deadline.IsZero() && !h.now().Before(jb.deadline) {
			// The deadline passed while the job sat queued. Fail it
			// terminally — failed.json records kind "deadline exceeded",
			// so no restart ever silently re-dispatches it — without
			// spending a worker on a sweep nobody is waiting for.
			h.mu.Unlock()
			h.met.deadlineTimeouts.Inc()
			h.finishJob(jb, runx.Newf(runx.KindTimeout, h.d.Stage,
				"%s %s missed its deadline %s before starting", h.d.Noun, jb.id, jb.deadline.Format(time.RFC3339)))
			continue
		}
		jb.state = StateRunning
		jb.cellsDone = 0
		enqueued := jb.enqueued
		ctx, cancel := context.WithCancel(h.baseCtx)
		h.running[jb.id] = cancel
		h.met.inflight.Set(float64(len(h.running)))
		h.mu.Unlock()

		// Queue-wait vs run-time split: the wait ends here, the run
		// starts here; both series carry the job's trace as exemplar.
		tc, traced := jb.traceCtx()
		started := h.now()
		if !enqueued.IsZero() {
			h.met.queueWait.ObserveExemplar(started.Sub(enqueued).Seconds(), tc.TraceID)
			if traced {
				_ = h.cfg.Frags.Append(obs.SpanFragment{
					Trace: tc.TraceID, Span: tc.Child().SpanID, Parent: tc.SpanID,
					Name:  "queue-wait " + jb.id,
					Start: enqueued.UnixNano(), End: started.UnixNano(),
					Attrs: map[string]string{h.d.Noun: jb.id, "class": jb.class},
				})
			}
		}
		err := h.run(ctx, jb)
		cancel()
		h.met.run.ObserveExemplar(h.now().Sub(started).Seconds(), tc.TraceID)
		h.finishJob(jb, err)
	}
}

// run executes one job through the daemon's executor and writes
// result.json atomically on success.
func (h *Host) run(ctx context.Context, jb *Job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, h.d.Stage+".run")
		}
	}()
	// Thread the job id through the context so any structured log line
	// emitted under this job carries it, and rejoin the trace the
	// submission minted (persisted with the spec, so resume rejoins it
	// too) so everything under this job records fragments.
	ctx = obs.WithIDs(ctx, slog.String(h.d.Noun, jb.id))
	if tc, ok := jb.traceCtx(); ok {
		ctx = obs.WithTraceContext(ctx, tc)
		ctx = obs.WithFragments(ctx, h.cfg.Frags)
		var endJob func()
		ctx, endJob = obs.StartSpan(ctx, h.d.Noun+" "+jb.id, map[string]string{h.d.Noun: jb.id})
		defer endJob()
	}
	timeout, err := ParseDuration("timeout", jb.spec.Timeout)
	if err != nil {
		return err
	}
	if timeout <= 0 {
		timeout = h.cfg.JobTimeout
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// The absolute SLO deadline rides the same context the relative
	// timeout does — whichever expires first cancels the job — but a
	// deadline failure is re-labeled below with the deadline timestamp,
	// so a waiting client learns *which* instant the job missed.
	if deadline := jb.deadline; !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
		defer func() {
			if err != nil && runx.IsKind(err, runx.KindTimeout) && !h.now().Before(deadline) {
				h.met.deadlineTimeouts.Inc()
				err = runx.Newf(runx.KindTimeout, h.d.Stage,
					"%s %s exceeded its deadline %s: %w", h.d.Noun, jb.id, deadline.Format(time.RFC3339), err)
			}
		}()
	}
	data, err := h.d.Execute(ctx, jb)
	if err != nil {
		return err
	}
	if err := durable.WriteFileAtomic(h.cfg.FS, h.ResultPath(jb.id), data); err != nil {
		if durable.IsNoSpace(err) {
			return runx.Newf(runx.KindUnavailable, h.d.Stage, "%s %s: write result: %w", h.d.Noun, jb.id, err)
		}
		return runx.Newf(runx.KindCorrupt, h.d.Stage, "%s %s: write result: %w", h.d.Noun, jb.id, err)
	}
	return nil
}

// ReopenJournal opens a job's journal (name, in the job directory)
// through durable.ReopenLog: resume replays it; a journal that cannot
// resume (corrupt record, torn header, recorded under different
// settings) is quarantined, counted as a heal, and replaced by create,
// so the job restarts from scratch; a full disk returns
// KindUnavailable and parks the job.
func (h *Host) ReopenJournal(j *Job, name string, resume, create func(fsys durable.FS, path string) error) error {
	fsys, path := h.cfg.FS, filepath.Join(h.jobDir(j.id), name)
	qp, cause, err := durable.ReopenLog(fsys, path,
		func() error { return resume(fsys, path) },
		func() error { return create(fsys, path) })
	if qp != "" {
		h.met.quarantined.Inc()
		h.met.healed.Inc()
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "journal unusable, quarantined; restarting from scratch",
			slog.String(h.d.Noun, j.id), slog.String("quarantine", qp), slog.Any("err", cause))
	}
	return err
}

// CellDone bumps a running job's progress counter for the status API.
func (h *Host) CellDone(j *Job) {
	h.mu.Lock()
	j.cellsDone++
	h.mu.Unlock()
}

// finishJob records a job's terminal (or interrupted) state. A
// canceled job — drain or shutdown — keeps its journal and resumes on
// the next start; every other failure is permanent and recorded in
// failed.json so restarts do not retry deterministic errors.
func (h *Host) finishJob(jb *Job, err error) {
	h.mu.Lock()
	delete(h.running, jb.id)
	h.met.inflight.Set(float64(len(h.running)))
	if err == nil {
		jb.state = StateDone
		h.mu.Unlock()
		h.met.done.Inc()
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "done",
			slog.String(h.d.Noun, jb.id), slog.Int("cells", jb.cellsTotal))
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
		h.mu.Unlock()
		h.met.interrupted.Inc()
		if durable.IsNoSpace(err) {
			h.setDegraded(true)
		}
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "interrupted, journaled for resume",
			slog.String(h.d.Noun, jb.id), slog.Any("err", err))
		return
	}
	// The marker must be durable before StateFailed is observable:
	// anyone who sees the state (or a recovery scan after a crash
	// here) must also see failed.json, or the job re-runs rather than
	// silently resurrecting as queued.
	kind := jb.errKind
	errText := jb.errText
	h.mu.Unlock()
	data, _ := json.Marshal(struct {
		Error string `json:"error"`
		Kind  string `json:"kind,omitempty"`
	}{errText, kind})
	if werr := durable.WriteFileAtomic(h.cfg.FS, filepath.Join(h.jobDir(jb.id), "failed.json"), append(data, '\n')); werr != nil {
		if durable.IsNoSpace(werr) {
			h.setDegraded(true)
		}
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn, "could not record failure",
			slog.String(h.d.Noun, jb.id), slog.Any("err", werr))
	}
	h.mu.Lock()
	jb.state = StateFailed
	h.mu.Unlock()
	h.met.failed.Inc()
	h.cfg.Logger.LogAttrs(context.Background(), slog.LevelError, "failed permanently",
		slog.String(h.d.Noun, jb.id), slog.Any("err", err))
}

// Submit admits a job under the class-aware SLO policy: an expired
// deadline is refused outright (KindTimeout), brownout and quota
// pressure shed with KindOverload (batch first — see brownout.go),
// draining and low-disk shed with KindUnavailable. Admitted specs are
// persisted durably before the caller learns the id. Used by the HTTP
// handler and directly by tests.
func (h *Host) Submit(sp Spec) (*JobStatus, error) {
	return h.SubmitCtx(context.Background(), sp)
}

// SubmitCtx is Submit carrying the caller's context. The submission is
// where a job's trace is settled, in priority order: a traceparent the
// spec already carries (a coordinator or resubmitting client minted it
// upstream), else the request context's (the HTTP hop propagated it),
// else a freshly minted one — so every accepted job is traceable even
// when the client predates tracing. The settled traceparent is stamped
// into the spec before it is persisted, making the trace as durable as
// the acceptance itself.
func (h *Host) SubmitCtx(ctx context.Context, sp Spec) (*JobStatus, error) {
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
	if !deadline.IsZero() && !h.now().Before(deadline) {
		h.met.deadlineTimeouts.Inc()
		return nil, runx.Newf(runx.KindTimeout, h.d.Stage,
			"deadline %s already passed at submission", deadline.Format(time.RFC3339))
	}
	nouns := h.d.Noun + "s"
	if h.Degraded() {
		// Brownout level 3: reads only. Status, results, and metrics
		// keep serving; every write sheds until a probe write succeeds.
		h.met.drainSheds.Inc()
		h.met.classShed(class)
		obs.RecordFlight("shed", "low disk: new "+h.d.Noun+" refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, h.d.Stage,
			"low disk: shedding new %s until durable writes succeed; retry after %s", nouns, h.cfg.RetryAfter)
	}
	h.mu.Lock()
	if h.draining {
		h.mu.Unlock()
		h.met.drainSheds.Inc()
		h.met.classShed(class)
		obs.RecordFlight("shed", "draining: new "+h.d.Noun+" refused", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindUnavailable, h.d.Stage, "draining: not accepting new %s", nouns)
	}
	level := h.brownoutLocked()
	h.noteBrownoutLocked(ctx, level)
	if class == PriorityBatch {
		if level >= BrownoutShedBatch {
			h.mu.Unlock()
			h.met.sheds.Inc()
			h.met.brownoutSheds.Inc()
			h.met.classShed(class)
			obs.RecordFlight("shed", "brownout: batch "+h.d.Noun+" refused", map[string]string{"class": class, "level": strconv.Itoa(level)})
			return nil, runx.Newf(runx.KindOverload, h.d.Stage,
				"brownout level %d: shedding batch work (interactive queue %d/%d); retry after %s",
				level, h.waitingInt, h.cfg.QueueDepth, h.cfg.RetryAfter)
		}
		if h.waitingBatch >= h.cfg.BatchQueueDepth {
			h.mu.Unlock()
			h.met.sheds.Inc()
			h.met.classShed(class)
			obs.RecordFlight("shed", "batch queue full", map[string]string{"class": class})
			return nil, runx.Newf(runx.KindOverload, h.d.Stage,
				"batch queue full (%d waiting); retry after %s", h.cfg.BatchQueueDepth, h.cfg.RetryAfter)
		}
	} else if h.waitingInt >= h.cfg.QueueDepth {
		h.mu.Unlock()
		h.met.sheds.Inc()
		h.met.brownoutSheds.Inc()
		h.met.classShed(class)
		obs.RecordFlight("shed", "interactive queue full", map[string]string{"class": class})
		return nil, runx.Newf(runx.KindOverload, h.d.Stage,
			"brownout level %d: interactive queue full (%d waiting), deferring new work; retry after %s",
			BrownoutDeferAll, h.cfg.QueueDepth, h.cfg.RetryAfter)
	}
	h.seq++
	id := fmt.Sprintf("%s%06d", h.d.IDPrefix, h.seq)
	jb := &Job{id: id, spec: sp, class: class, deadline: deadline, enqueued: h.now(), state: StateQueued, cellsTotal: sp.CellsTotal()}
	h.jobs[id] = jb
	h.order = append(h.order, id)
	if class == PriorityBatch {
		h.waitingBatch++
	} else {
		h.waitingInt++
	}
	h.updateQueueGaugesLocked()
	h.mu.Unlock()

	// Durability before acknowledgment: the spec reaches disk (fsync +
	// rename) before the caller ever learns the job id, so "accepted"
	// survives any crash.
	specData, err := json.MarshalIndent(sp, "", "  ")
	if err == nil {
		if err = h.cfg.FS.MkdirAll(h.jobDir(id), 0o755); err == nil {
			// Make the directory entry itself durable before the spec
			// rename that depends on it — the fsync a bare MkdirAll
			// forgets.
			h.cfg.FS.SyncDir(filepath.Join(h.cfg.StateDir, h.d.Dir))
			err = durable.WriteFileAtomic(h.cfg.FS, filepath.Join(h.jobDir(id), "spec.json"), append(specData, '\n'))
		}
	}
	if err != nil {
		h.mu.Lock()
		delete(h.jobs, id)
		h.order = h.order[:len(h.order)-1]
		if class == PriorityBatch {
			h.waitingBatch--
		} else {
			h.waitingInt--
		}
		h.updateQueueGaugesLocked()
		h.mu.Unlock()
		if durable.IsNoSpace(err) {
			// Ack nothing we cannot persist: the submission is refused,
			// previously-acked state is untouched, and the host sheds
			// until a probe write clears the pressure.
			h.setDegraded(true)
			return nil, runx.Newf(runx.KindUnavailable, h.d.Stage, "persist %s %s: %w", h.d.Noun, id, err)
		}
		return nil, runx.Newf(runx.KindCorrupt, h.d.Stage, "persist %s %s: %w", h.d.Noun, id, err)
	}

	h.mu.Lock()
	if !h.wakeClosed {
		// The waiting slot was reserved at admission; only the lane
		// append happens here. Wake capacity was reserved too, so the
		// token send never blocks.
		if class == PriorityBatch {
			h.pendBatch = append(h.pendBatch, jb)
		} else {
			h.pendInt = append(h.pendInt, jb)
		}
		h.wake <- struct{}{}
	}
	// If admission closed between reserve and here, the job stays on
	// disk and the next process resumes it — accepted is accepted.
	st := statusLocked(jb)
	h.mu.Unlock()
	h.met.accepted.Inc()
	h.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "accepted",
		slog.String(h.d.Noun, id), slog.Int("cells", jb.cellsTotal))
	return st, nil
}

// Status returns a job's status snapshot.
func (h *Host) Status(id string) (*JobStatus, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	jb, ok := h.jobs[id]
	if !ok {
		return nil, false
	}
	return statusLocked(jb), true
}

// Spec returns a job's persisted spec, trace included.
func (h *Host) Spec(id string) (Spec, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	jb, ok := h.jobs[id]
	if !ok {
		return Spec{}, false
	}
	return jb.spec, true
}

// List returns every job's status in submission order.
func (h *Host) List() []*JobStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*JobStatus, 0, len(h.order))
	for _, id := range h.order {
		out = append(out, statusLocked(h.jobs[id]))
	}
	return out
}

func statusLocked(jb *Job) *JobStatus {
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
func (h *Host) ResultPath(id string) string {
	return filepath.Join(h.jobDir(id), "result.json")
}

// Draining reports whether drain has begun (readyz turns 503).
func (h *Host) Draining() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.draining
}

// Drain gracefully stops the host: admission closes (new submissions
// are shed with 503), running jobs get DrainGrace to finish, then
// their contexts are canceled — which journals their progress for the
// next start. Queued-but-unstarted jobs are left durably on disk.
// Returns once every worker has exited. Idempotent.
func (h *Host) Drain(ctx context.Context) error {
	h.closeAdmission()
	h.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "draining: admission closed, waiting for running "+h.d.Noun+"s",
		slog.Duration("grace", h.cfg.DrainGrace))

	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(h.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-grace.C:
		h.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "drain grace expired, canceling running "+h.d.Noun+"s (progress stays journaled)")
		h.cancelRunning()
		<-done
	case <-ctx.Done():
		h.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "drain aborted by caller, canceling running "+h.d.Noun+"s")
		h.cancelRunning()
		<-done
	}
	h.baseCancel()
	h.logDrainSummary()
	return nil
}

// closeAdmission marks the host draining and closes the wake channel,
// so workers exit once the running jobs return.
func (h *Host) closeAdmission() {
	h.mu.Lock()
	h.draining = true
	if !h.wakeClosed {
		close(h.wake)
		h.wakeClosed = true
	}
	h.mu.Unlock()
}

func (h *Host) cancelRunning() {
	h.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(h.running))
	for _, c := range h.running {
		cancels = append(cancels, c)
	}
	h.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

func (h *Host) logDrainSummary() {
	h.mu.Lock()
	counts := map[string]int{}
	for _, jb := range h.jobs {
		counts[jb.state]++
	}
	h.mu.Unlock()
	h.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "drained (interrupted and queued resume on restart)",
		slog.Int(StateDone, counts[StateDone]), slog.Int(StateFailed, counts[StateFailed]),
		slog.Int(StateInterrupted, counts[StateInterrupted]), slog.Int(StateQueued, counts[StateQueued]))
}

// Close hard-stops the host: cancels everything and waits for the
// workers. For tests; production shutdown is Drain.
func (h *Host) Close() {
	h.closeAdmission()
	h.baseCancel()
	h.wg.Wait()
}

func (h *Host) jobDir(id string) string {
	return filepath.Join(h.cfg.StateDir, h.d.Dir, id)
}

// requeueForHeal sends a job whose terminal artifact was quarantined
// back through the run path. If the queue is closed or full the job
// parks as interrupted instead and the next process heals it — either
// way no state is lost. Reports whether an in-process re-run was
// scheduled.
func (h *Host) requeueForHeal(id string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	jb, ok := h.jobs[id]
	if !ok {
		return false
	}
	if h.wakeClosed || h.draining {
		jb.state = StateInterrupted
		return false
	}
	select {
	case h.wake <- struct{}{}:
		jb.state = StateQueued
		jb.resumed = true
		jb.cellsDone = 0
		jb.errText, jb.errKind = "", ""
		h.pushLocked(jb)
		h.updateQueueGaugesLocked()
		return true
	default:
		jb.state = StateInterrupted
		return false
	}
}

// Degraded reports whether the host is in low-disk degraded mode.
// While degraded it probes with a tiny durable write; the first probe
// that succeeds clears the state, so recovery needs no operator action
// beyond freeing space.
func (h *Host) Degraded() bool {
	if !h.degraded.Load() {
		return false
	}
	if h.probeDisk() {
		h.setDegraded(false)
		return false
	}
	return true
}

func (h *Host) setDegraded(on bool) {
	was := h.degraded.Swap(on)
	if was == on {
		return
	}
	if on {
		h.met.lowDisk.Set(1)
		durable.SetLowDisk(true)
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelWarn,
			"durable write hit ENOSPC; entering degraded mode (shedding new work, previously-acked state intact)")
	} else {
		h.met.lowDisk.Set(0)
		durable.SetLowDisk(false)
		h.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "disk probe succeeded; leaving degraded mode")
	}
	// Degraded is brownout level 3 (reads only); publish the transition.
	h.noteReadsOnly(on)
}

// probeDisk attempts a tiny durable write in the state dir.
func (h *Host) probeDisk() bool {
	path := filepath.Join(h.cfg.StateDir, ".diskprobe")
	f, err := h.cfg.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("ok\n"))
	serr := f.Sync()
	cerr := f.Close()
	h.cfg.FS.Remove(path)
	return werr == nil && serr == nil && cerr == nil
}
