package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"time"

	"deesim/internal/experiments"
	"deesim/internal/obs"
	"deesim/internal/runx"
	"deesim/internal/server"
)

const stageLease = "coord.lease"

// sweep is the leased-cell executor's per-sweep state.
type sweep struct {
	c    *Coordinator
	id   string
	spec server.Spec

	index map[string]int // task index by cell key

	mu        sync.Mutex
	seq       int   // lease ids granted so far
	attempts  []int // attempts per task, in this process
	durations []time.Duration
}

// lease is one grant of a cell to a worker. Its TTL runs from the
// grant, so time spent waiting for a slot never counts against it.
type lease struct {
	id          string
	w           *worker
	speculative bool
	granted     time.Time
	cancel      context.CancelFunc
}

// outcome is one lease RPC's result.
type outcome struct {
	l       *lease
	payload json.RawMessage
	err     error
}

// runCell computes one cell attempt on the fleet. It waits for a slot
// (preferring the worker that holds the cell's input; see pickLocked)
// and leases the cell there. The lease is revoked — and the attempt
// fails retryably, for superv to retry — when its TTL passes or its
// worker's heartbeat goes stale.
// While no cell waits for a slot, a lease running past StragglerFactor
// × the median cell time gets one speculative duplicate on another
// worker: disjoint eager execution applied to the sweep (a "hedged
// request"). The first result wins; see race for the rest.
func (s *sweep) runCell(ctx context.Context, t experiments.MatrixTask) (*experiments.CellResult, error) {
	key := t.Key()
	i := s.index[key]
	s.mu.Lock()
	s.attempts[i]++
	attempt := s.attempts[i]
	s.mu.Unlock()

	w, err := s.c.acquire(ctx, nil, i)
	if err != nil {
		return nil, err
	}
	// Two leases at most per attempt, so their RPCs never block sending.
	out := make(chan outcome, 2)
	live := []*lease{s.grant(ctx, t, attempt, w, false, out)}
	// drop revokes a live lease, reporting false for one already gone.
	drop := func(l *lease) bool {
		for i, x := range live {
			if x == l {
				l.cancel()
				s.c.release(l.w)
				live = append(live[:i], live[i+1:]...)
				return true
			}
		}
		return false
	}
	defer func() {
		for len(live) > 0 {
			drop(live[0])
		}
	}()
	speculated := false
	tick := time.NewTicker(s.c.tickEvery())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil, runx.CtxErr(ctx, stageLease)
		case o := <-out:
			if o.err == nil {
				return s.settle(key, o, out)
			}
			if !drop(o.l) {
				continue // a revoked lease's RPC winding down
			}
			if !runx.Retryable(o.err) {
				// Deterministic failure: every worker would fail the same way.
				s.c.met.cellsFailed.Inc()
				return nil, o.err
			}
			if len(live) == 0 {
				return nil, o.err
			}
		case <-tick.C:
			now := s.c.cfg.now()
			for _, l := range append([]*lease(nil), live...) {
				reason := ""
				switch {
				case s.c.lost(l.w):
					reason = "worker heartbeat lost"
				case now.Sub(l.granted) > s.c.cfg.LeaseTTL:
					reason = "lease TTL exceeded"
				default:
					continue
				}
				drop(l)
				s.c.met.leaseExpiries.Inc()
				s.c.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "lease expired", slog.String("cell", key),
					slog.String("lease", l.id), slog.String("worker", l.w.id), slog.String("reason", reason))
				if len(live) == 0 {
					return nil, runx.Newf(runx.KindUnavailable, stageLease, "cell %s: %s", key, reason)
				}
			}
			if !speculated && s.straggling(live[0], now) {
				if alt, _ := s.c.acquire(ctx, live[0].w, i); alt != nil {
					speculated = true
					s.c.met.specLaunches.Inc()
					s.c.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "straggler, speculating", slog.String("cell", key),
						slog.String("worker", live[0].w.id), slog.Duration("running", now.Sub(live[0].granted).Round(time.Millisecond)),
						slog.String("spec_worker", alt.id))
					live = append(live, s.grant(ctx, t, attempt, alt, true, out))
				}
			}
		}
	}
}

// grant leases the cell to w and starts the RPC. The lease span is the
// coordinator-clock record of this lease; its child traceparent travels
// in the request so the worker's cell span nests under it, and the
// trace merge pairs the two spans by lease id to estimate clock skew.
func (s *sweep) grant(ctx context.Context, t experiments.MatrixTask, attempt int, w *worker, speculative bool, out chan<- outcome) *lease {
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("%s-l%05d", s.id, s.seq)
	s.mu.Unlock()
	ctx, cancel := context.WithCancel(ctx)
	l := &lease{id: id, w: w, speculative: speculative, granted: s.c.cfg.now(), cancel: cancel}
	s.c.met.leasesGranted.Inc()
	ctx, endSpan := obs.StartSpan(ctx, "lease "+t.Key(), map[string]string{
		"lease": id, "worker": w.id, "attempt": strconv.Itoa(attempt),
	})
	req := server.CellRequest{Spec: s.spec, Task: t, Lease: id}
	if tc, ok := obs.TraceContextFrom(ctx); ok && tc.Sampled {
		req.Traceparent = tc.Traceparent()
	}
	go func() {
		payload, err := w.client.RunCell(ctx, req)
		endSpan()
		out <- outcome{l: l, payload: payload, err: err}
	}()
	return l
}

// straggling reports whether l has run past StragglerFactor × the
// median completed cell time while no cell waits for a slot.
func (s *sweep) straggling(l *lease, now time.Time) bool {
	if s.c.cfg.StragglerFactor <= 0 {
		return false
	}
	s.mu.Lock()
	if len(s.durations) < 3 {
		s.mu.Unlock()
		return false
	}
	ds := append([]time.Duration(nil), s.durations...)
	s.mu.Unlock()
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	threshold := time.Duration(float64(ds[len(ds)/2]) * s.c.cfg.StragglerFactor)
	return threshold > 0 && now.Sub(l.granted) >= threshold && s.c.idle()
}

// settle finishes an attempt on its first result: it holds a result the
// other lease already delivered to the duplicate rule and decodes the
// winner. runCell's return then revokes the other lease.
func (s *sweep) settle(key string, won outcome, out <-chan outcome) (*experiments.CellResult, error) {
	r := &race{c: s.c, key: key}
	_ = r.complete(won.l.w.id, won.payload)
	s.c.met.cellsDone.Inc()
	if won.l.speculative {
		s.c.met.specWins.Inc()
	}
	s.mu.Lock()
	s.durations = append(s.durations, s.c.cfg.now().Sub(won.l.granted))
	s.mu.Unlock()
	select {
	case o := <-out:
		if o.err == nil {
			if err := r.complete(o.l.w.id, o.payload); err != nil {
				return nil, err
			}
		}
	default:
	}
	var cell experiments.CellResult
	if err := json.Unmarshal(r.winner, &cell); err != nil {
		return nil, runx.Newf(runx.KindCorrupt, stageLease, "cell %s: result from %s: %v", key, won.l.w.id, err)
	}
	return &cell, nil
}

// race applies the duplicate rule to one cell's results: the first
// wins; a later identical one is discarded and counted; a later
// byte-different one is KindCorrupt, because two different results for
// one deterministic cell mean a worker (or the network) is lying.
type race struct {
	c      *Coordinator
	key    string
	winner json.RawMessage
}

func (r *race) complete(workerID string, payload json.RawMessage) error {
	if r.winner == nil {
		r.winner = payload
		return nil
	}
	if bytes.Equal(normJSON(r.winner), normJSON(payload)) {
		r.c.met.dupDiscards.Inc()
		r.c.cfg.Logger.LogAttrs(context.Background(), slog.LevelInfo, "duplicate completion discarded (identical)",
			slog.String("cell", r.key), slog.String("worker", workerID))
		return nil
	}
	r.c.met.dupConflicts.Inc()
	return runx.Newf(runx.KindCorrupt, stageLease,
		"cell %s: conflicting duplicate completions (winner already taken, %d-byte divergent copy from %s)",
		r.key, len(payload), workerID)
}

// normJSON compacts a JSON payload for comparison, so semantically
// identical duplicates differing only in insignificant whitespace do
// not masquerade as conflicts.
func normJSON(raw json.RawMessage) []byte {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return raw
	}
	return buf.Bytes()
}

// tickEvery picks the lease-check cadence: fast enough to catch expiry
// promptly relative to the TTL and heartbeat windows, bounded so tiny
// test TTLs do not spin.
func (c *Coordinator) tickEvery() time.Duration {
	t := min(c.cfg.LeaseTTL, c.cfg.HeartbeatTimeout) / 4
	return max(10*time.Millisecond, min(t, time.Second))
}
