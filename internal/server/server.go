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
//
// Admission, execution bookkeeping, drain and recovery live in the job
// host (host.go), which deesim-coord runs on as well: deesimd's Server
// is that host with a local executor (execute) plus the leased-cell
// RPC (cells.go).
package server

import (
	"context"
	"encoding/json"
	"log/slog"
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

// Server is deesimd: the shared job host (host.go) running sweeps
// locally, plus the leased-cell RPC a coordinator dispatches to.
// Create with New, start workers with Start, serve Handler() over
// HTTP, and stop with Drain (graceful) or Close (hard, for tests).
type Server struct {
	*Host
	cellMet     *cellMetrics
	cellSlots   chan struct{} // leased-cell admission (capacity CellSlots)
	cellsActive int64         // leased cells executing right now (atomic)
}

const stageServer = "server"

// New builds a server over StateDir, recovering any jobs a previous
// process left behind: completed jobs are indexed for result serving,
// incomplete ones re-queued for resumption (their journals replay
// finished cells). It does not start workers; call Start.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cellMet:   newCellMetrics(cfg.Metrics),
		cellSlots: make(chan struct{}, cfg.CellSlots),
	}
	h, err := NewHost(cfg, Daemon{
		Name: "deesimd", Stage: stageServer, Noun: "job", Dir: "jobs", IDPrefix: "j",
		Series:  Series{Prefix: "deesim_server", HTTP: "deesim_http", Resumed: "deesim_server_jobs_resumed_total"},
		Execute: s.execute,
	})
	if err != nil {
		return nil, err
	}
	s.Host = h
	return s, nil
}

// execute is deesimd's executor: the job's sweep as one crash-safe
// superv matrix run under its journal. Resumable by construction:
// every completed cell is fsync'd to the journal before the next
// begins.
func (s *Server) execute(ctx context.Context, jb *Job) ([]byte, error) {
	ws, cfg, err := jb.spec.resolve()
	if err != nil {
		return nil, err
	}
	backoff, err := ParseDuration("backoff", jb.spec.Backoff)
	if err != nil {
		return nil, err
	}
	if backoff <= 0 {
		backoff = s.cfg.Backoff
	}
	retries := jb.spec.Retries
	if retries <= 0 {
		retries = s.cfg.Retries
	}
	cellDelay, err := ParseDuration("cell_delay", jb.spec.CellDelay)
	if err != nil {
		return nil, err
	}

	meta := experiments.MatrixMeta(ws, cfg)
	var (
		jr    *superv.Journal
		prior *superv.State
	)
	if err := s.ReopenJournal(jb, "run.journal",
		func(fsys durable.FS, path string) (err error) {
			jr, prior, err = superv.ResumeFS(fsys, path, "deesimd", meta)
			return err
		},
		func(fsys durable.FS, path string) (err error) {
			jr, err = superv.CreateFS(fsys, path, "deesimd", meta)
			return err
		}); err != nil {
		return nil, err
	}
	defer jr.Close()

	if prior != nil && len(prior.Done) > 0 {
		s.jobLogf(jb.id, "resuming, %s", prior.Summary(jb.cellsTotal))
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
			s.jobLogf(jb.id, "retrying %s (attempt %d after %s): %v", key, attempt, delay, err)
		},
		OnCell: func(key string, replayed bool) {
			s.CellDone(jb)
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
	if s.cfg.Memo == nil {
		return compute(ctx)
	}
	// Whole-spec singleflight: a thundering herd of identical
	// submissions blocks on the first one's sweep and shares its bytes —
	// each job still writes (and acks) its own result.json, so the
	// per-job durability contract is unchanged.
	data, err := s.cfg.Memo.Do(ctx, experiments.SweepMemoKey(ws, cfg), compute)
	if err == nil {
		s.mu.Lock()
		jb.cellsDone = jb.cellsTotal // shared or replayed cells count as done
		s.mu.Unlock()
	}
	return data, err
}
