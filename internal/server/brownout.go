package server

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"

	"deesim/internal/obs"
)

// Brownout is the job host's graceful-degradation ladder, the same on
// deesimd and deesim-coord. Instead of one cliff — queue full,
// everything sheds — admission walks down a sequence of levels as
// pressure builds, shedding the least valuable work first. The level
// is computed from signals the host already tracks (per-class queue occupancy and the low-disk degraded flag),
// so there is no separate controller to drift out of sync: every
// admission decision re-derives the level from current state.
//
//	level 0  normal        both classes admit against their quotas
//	level 1  shed batch    interactive occupancy crossed the watermark
//	                       (or batch's own queue is full): new batch
//	                       sweeps shed 429 + Retry-After, interactive
//	                       unaffected
//	level 2  defer all new interactive queue full too: new interactive
//	                       sweeps defer 429 + Retry-After; everything
//	                       already accepted keeps running
//	level 3  reads only    durable writes are failing (ENOSPC): every
//	                       write path sheds 503, but status, results,
//	                       healthz, and metrics keep serving — the
//	                       daemon stays observable and previously-acked
//	                       state stays reachable
//
// Levels are strictly ordered: a higher level implies every lower
// level's sheds. The current level is exported as the
// deesim_server_brownout_level (deesimd) or deesim_coord_brownout_level
// (deesim-coord) gauge, refreshed on every admission decision and
// every degraded-flag transition.
const (
	BrownoutOff       = 0
	BrownoutShedBatch = 1
	BrownoutDeferAll  = 2
	BrownoutReadsOnly = 3
)

// brownoutLocked computes levels 0–2 from queue occupancy. Level 3
// (reads only) is owned by the degraded flag and checked before the
// lock is taken — see Submit. Caller holds h.mu.
func (h *Host) brownoutLocked() int {
	switch {
	case h.waitingInt >= h.cfg.QueueDepth:
		return BrownoutDeferAll
	case h.waitingInt >= h.cfg.BrownoutWatermark:
		return BrownoutShedBatch
	default:
		return BrownoutOff
	}
}

// noteBrownoutLocked publishes the current level on the gauge and logs
// transitions. The context is the admission request that tripped the
// transition: its correlation IDs (trace_id, job ids) ride into the
// structured log line, so a brownout can be joined to the submission
// that pushed the queue over the watermark. Caller holds h.mu.
func (h *Host) noteBrownoutLocked(ctx context.Context, level int) {
	if level == h.brownout {
		return
	}
	h.logf("brownout level %d -> %d (%s)", h.brownout, level, brownoutName(level))
	h.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "brownout transition",
		slog.Int("from", h.brownout), slog.Int("to", level), slog.String("policy", brownoutName(level)),
		slog.Int("waiting_interactive", h.waitingInt), slog.Int("waiting_batch", h.waitingBatch))
	attrs := map[string]string{
		"from": strconv.Itoa(h.brownout), "to": strconv.Itoa(level),
		"policy": brownoutName(level),
	}
	if tc, ok := obs.TraceContextFrom(ctx); ok {
		attrs["trace"] = tc.TraceID
	}
	obs.RecordFlight("brownout", "level "+strconv.Itoa(h.brownout)+" -> "+strconv.Itoa(level), attrs)
	h.brownout = level
	h.met.brownoutLevel.Set(float64(level))
}

// noteReadsOnly publishes the level-3 transition from the degraded
// flag's side (it flips outside h.mu).
func (h *Host) noteReadsOnly(on bool) {
	h.mu.Lock()
	if on {
		h.noteBrownoutLocked(context.Background(), BrownoutReadsOnly)
	} else if h.brownout == BrownoutReadsOnly {
		h.noteBrownoutLocked(context.Background(), h.brownoutLocked())
	}
	h.mu.Unlock()
}

// BrownoutLevel reports the current brownout level for /readyz and
// diagnostics.
func (h *Host) BrownoutLevel() int {
	if h.Degraded() {
		return BrownoutReadsOnly
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	level := h.brownoutLocked()
	h.noteBrownoutLocked(context.Background(), level)
	return level
}

func brownoutName(level int) string {
	switch level {
	case BrownoutOff:
		return "normal"
	case BrownoutShedBatch:
		return "shedding batch"
	case BrownoutDeferAll:
		return "deferring all new work"
	case BrownoutReadsOnly:
		return "reads only"
	}
	return fmt.Sprintf("level %d", level)
}
