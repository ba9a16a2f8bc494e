package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"deesim/internal/obs"
)

// Heartbeater is the worker side of fleet membership: it registers a
// deesimd instance with the coordinator and beats at the cadence the
// coordinator assigned, re-registering whenever the coordinator stops
// recognizing it (coordinator restart). It deliberately uses plain
// net/http — a missed beat is information, not an error to retry away:
// the coordinator's lease expiry is the recovery mechanism.
type Heartbeater struct {
	// CoordURL is the coordinator base URL; SelfURL is this worker's
	// advertised base URL.
	CoordURL string
	SelfURL  string
	// Slots is the cell capacity to advertise.
	Slots int
	// State reports the worker's current tri-state and inflight cell
	// count at each beat (server.WorkerState / server.CellsActive).
	State func() (state string, inflight int)
	// Every overrides the coordinator-assigned cadence (0 = obey it).
	Every time.Duration
	// Logger receives registration (Info) and beat failures (Warn); nil
	// means obs.Discard.
	Logger *slog.Logger
	// HTTP is the transport (nil = a 5s-timeout client; beats must be
	// cheap and never hang past their own cadence).
	HTTP *http.Client

	// traceOnce/trace hold the per-process traceparent every beat
	// carries: minted once, sampled bit clear — heartbeats are joinable
	// in logs by trace id without ever recording span fragments.
	traceOnce sync.Once
	trace     obs.TraceContext
}

// traceparent returns the heartbeater's unsampled per-process trace
// context, minting it on first use.
func (h *Heartbeater) traceparent() string {
	h.traceOnce.Do(func() {
		h.trace = obs.NewTrace()
		h.trace.Sampled = false
	})
	return h.trace.Traceparent()
}

// Run registers and then beats until ctx ends. Registration failures
// retry on a fixed cadence — on start the coordinator may simply not
// be up yet; the fleet converges whenever it arrives.
func (h *Heartbeater) Run(ctx context.Context) {
	log := h.Logger
	if log == nil {
		log = obs.Discard
	}
	for {
		id, assigned, err := h.register(ctx)
		if err != nil {
			log.LogAttrs(ctx, slog.LevelWarn, "coordinator register failed, retrying", slog.Any("err", err))
			if !sleepCtx(ctx, 2*time.Second) {
				return
			}
			continue
		}
		// Re-read on every registration: a restarted coordinator may
		// assign a different cadence than the one that came before it.
		every := h.Every
		if every <= 0 {
			every = assigned
		}
		if every <= 0 {
			every = 5 * time.Second
		}
		log.LogAttrs(ctx, slog.LevelInfo, "registered with coordinator",
			slog.String("worker", id), slog.Duration("every", every))
		if !h.beatLoop(ctx, log, id, every) {
			return
		}
		// beatLoop returned because the coordinator forgot us; loop back
		// into registration.
	}
}

// beatLoop beats until ctx ends (returns false) or the coordinator
// rejects the id (returns true: re-register).
func (h *Heartbeater) beatLoop(ctx context.Context, log *slog.Logger, id string, every time.Duration) bool {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
		}
		state, inflight := "ready", 0
		if h.State != nil {
			state, inflight = h.State()
		}
		code, err := h.post(ctx, "/v1/workers/"+id+"/heartbeat", HeartbeatRequest{State: state, Inflight: inflight}, nil)
		switch {
		case err != nil:
			// Transport failure: the coordinator may be partitioned or
			// restarting. Keep beating — leases expire on its side, and the
			// next successful beat rejoins the fleet.
			log.LogAttrs(ctx, slog.LevelWarn, "heartbeat failed", slog.String("worker", id), slog.Any("err", err))
		case code == http.StatusBadRequest:
			log.LogAttrs(ctx, slog.LevelWarn, "coordinator no longer recognizes worker, re-registering", slog.String("worker", id))
			return true
		}
	}
}

func (h *Heartbeater) register(ctx context.Context) (id string, every time.Duration, err error) {
	var resp RegisterResponse
	code, err := h.post(ctx, "/v1/workers", RegisterRequest{URL: h.SelfURL, Slots: h.Slots}, &resp)
	if err != nil {
		return "", 0, err
	}
	if code != http.StatusOK {
		return "", 0, fmt.Errorf("register: HTTP %d", code)
	}
	d, _ := time.ParseDuration(resp.HeartbeatEvery)
	return resp.ID, d, nil
}

func (h *Heartbeater) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(h.CoordURL, "/")+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceparentHeader, h.traceparent())
	hc := h.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	rb, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
