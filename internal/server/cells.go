package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"deesim/internal/bench"
	"deesim/internal/experiments"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// CellRequest is the body of POST /v1/cells — the distributed-sweep
// cell RPC. Spec names the sweep matrix (the same vocabulary a job
// submission uses; its execution knobs are ignored here, the
// coordinator owns retry policy), Task addresses the one cell to run.
// Lease is the coordinator's lease id, echoed into logs so a worker's
// access log lines up with the coordinator's log and lease span.
type CellRequest struct {
	Spec  Spec                   `json:"spec"`
	Task  experiments.MatrixTask `json:"task"`
	Lease string                 `json:"lease,omitempty"`
	// Traceparent carries the coordinator's dispatch-span context, so
	// the worker's cell span nests under the exact lease attempt that
	// dispatched it (the spec's own trace would parent every attempt
	// under the sweep root instead). Absent falls back to the transport
	// header, then to Spec.Trace.
	Traceparent string `json:"traceparent,omitempty"`
}

// Validate resolves the spec and checks the task addresses a cell
// inside the spec's matrix.
func (cr CellRequest) Validate() error {
	ws, cfg, err := cr.Spec.resolve()
	if err != nil {
		return err
	}
	for _, t := range experiments.MatrixTasks(ws, cfg) {
		if t == cr.Task {
			return nil
		}
	}
	return runx.Newf(runx.KindInvalidInput, stageServer, "task %s outside the spec's matrix", cr.Task.Key())
}

// handleCell serves one leased cell synchronously: admission is a
// non-blocking slot acquire (a worker at capacity sheds with 429 so the
// coordinator leases elsewhere), execution is the same single-cell code
// path a journaled sweep runs, and the response body is the CellResult
// JSON the coordinator's sweep folds and journals. A draining worker
// sheds with 503 before touching a slot. Stalls and partitions need no handling
// here — the coordinator's lease expiry re-dispatches the cell, and the
// duplicate-completion rule discards whichever result loses the race.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var cr CellRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cr); err != nil {
		s.WriteError(w, runx.Newf(runx.KindInvalidInput, stageServer, "decode cell request: %v", err))
		return
	}
	if s.Draining() || s.Degraded() {
		s.cellMet.sheds.Inc()
		s.WriteError(w, runx.Newf(runx.KindUnavailable, stageServer, "draining: not accepting cells"))
		return
	}
	cellDeadline, err := cr.Spec.ParseDeadline()
	if err != nil {
		s.WriteError(w, err)
		return
	}
	if !cellDeadline.IsZero() && !time.Now().Before(cellDeadline) {
		// The sweep's absolute deadline already passed: refuse before
		// burning a slot, typed KindTimeout so the coordinator retires
		// the sweep instead of re-dispatching the cell.
		s.cellMet.sheds.Inc()
		s.met.deadlineTimeouts.Inc()
		s.WriteError(w, runx.Newf(runx.KindTimeout, stageServer,
			"cell %s past its sweep deadline %s", cr.Task.Key(), cellDeadline.Format(time.RFC3339)))
		return
	}
	select {
	case s.cellSlots <- struct{}{}:
		defer func() { <-s.cellSlots }()
	default:
		s.cellMet.sheds.Inc()
		s.WriteError(w, runx.Newf(runx.KindOverload, stageServer,
			"all %d cell slots busy; retry after %s", cap(s.cellSlots), s.cfg.RetryAfter))
		return
	}
	s.cellMet.inflight.Set(float64(atomic.AddInt64(&s.cellsActive, 1)))
	defer func() { s.cellMet.inflight.Set(float64(atomic.AddInt64(&s.cellsActive, -1))) }()

	if err := cr.Validate(); err != nil {
		s.WriteError(w, err)
		return
	}
	ws, cfg, err := cr.Spec.resolve()
	if err != nil {
		s.WriteError(w, err)
		return
	}
	cellDelay, err := ParseDuration("cell_delay", cr.Spec.CellDelay)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.CellTimeout)
	defer cancel()
	if !cellDeadline.IsZero() {
		// The sweep deadline rides the cell context too, so a cell that
		// straddles the deadline is cancelled mid-run, not just refused
		// up front.
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, cellDeadline)
		defer dcancel()
	}
	ctx = obs.WithCellKey(ctx, cr.Task.Key())
	// Rejoin the sweep's trace: the request body's traceparent wins (it
	// names the coordinator's dispatch span for this lease attempt),
	// then the transport header already on ctx, then the spec's root.
	if tc, ok := obs.ParseTraceparent(cr.Traceparent); ok {
		ctx = obs.WithTraceContext(ctx, tc)
	} else if _, ok := obs.TraceContextFrom(ctx); !ok {
		if tc, ok := obs.ParseTraceparent(cr.Spec.Trace); ok {
			ctx = obs.WithTraceContext(ctx, tc)
		}
	}
	if s.cfg.Frags != nil {
		ctx = obs.WithFragments(ctx, s.cfg.Frags)
	}
	// The RPC span carries the lease id: the coordinator's timeline
	// merge pairs it with its own dispatch span for the same lease to
	// estimate this worker's clock skew.
	ctx, endSpan := obs.StartSpan(ctx, "cell-rpc "+cr.Task.Key(), map[string]string{
		"lease": cr.Lease, "task": cr.Task.Key(),
	})
	defer endSpan()
	res, err := s.runCell(ctx, ws, cfg, cr.Task)
	if err != nil {
		s.WriteError(w, err)
		return
	}
	if cellDelay > 0 {
		// Chaos-drill pacing, mirroring Spec.CellDelay on the job path:
		// the result is already computed, so the pause widens the window
		// in which a kill or partition lands without losing work.
		t := time.NewTimer(cellDelay)
		select {
		case <-r.Context().Done():
		case <-t.C:
		}
		t.Stop()
	}
	s.cellMet.served.Inc()
	writeJSON(w, http.StatusOK, res)
}

// runCell executes the cell under panic isolation, so a poisoned cell
// is a typed 500 to the coordinator — which retries or fails the sweep
// by kind — never a dead worker. With a memo configured, the cell
// consults the content-addressed cache first and identical concurrent
// cell RPCs collapse onto one in-flight simulation (each still holds
// its own admission slot — collapse saves compute, not capacity).
func (s *Server) runCell(ctx context.Context, ws []bench.Workload, cfg experiments.Config, t experiments.MatrixTask) (res *experiments.CellResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = runx.FromPanic(r, "server.runCell")
		}
	}()
	return experiments.RunCellMemo(ctx, s.cfg.Memo, ws, cfg, t)
}

// CellsActive reports how many leased cells are executing right now —
// the /readyz busy signal and the heartbeat's inflight count.
func (s *Server) CellsActive() int {
	return int(atomic.LoadInt64(&s.cellsActive))
}

// CellSlots reports the worker's cell capacity.
func (s *Server) CellSlots() int { return cap(s.cellSlots) }

// WorkerState renders the tri-state a worker advertises to the
// coordinator (and on /readyz): "draining" once drain has begun, "busy"
// with every cell slot occupied, otherwise "ready".
func (s *Server) WorkerState() string {
	switch {
	case s.Draining(), s.Degraded():
		// Low-disk degraded mode reads as draining to the fleet: the
		// coordinator stops leasing here without needing a new state.
		return WorkerDraining
	case s.CellsActive() >= s.CellSlots():
		return WorkerBusy
	default:
		return WorkerReady
	}
}

// Worker states advertised via /readyz and coordinator heartbeats.
const (
	WorkerReady    = "ready"
	WorkerBusy     = "busy"
	WorkerDraining = "draining"
)
