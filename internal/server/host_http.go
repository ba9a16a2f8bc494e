package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"deesim/internal/durable"
	"deesim/internal/obs"
	"deesim/internal/runx"
)

// maxSpecBytes bounds a submission body; a spec is a few hundred bytes,
// so anything near the cap is garbage or abuse.
const maxSpecBytes = 1 << 20

// Routes returns a fresh mux serving the host's half of the API; each
// daemon's Handler adds its own routes (and /readyz) with Handle:
//
//	POST /v1/jobs             submit (202, or 429/503 when shed)
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/result completed job's result tables (JSON)
//	GET  /healthz             liveness (200 while the process serves)
//	GET  /metrics             Prometheus text exposition of the registry
//	GET  /versionz            build/version info (JSON)
//
// Every route runs behind panic isolation, a per-request deadline, and
// the access-log/metrics middleware; errors are JSON bodies {"error":
// ..., "kind": ...} whose kind names a runx kind and whose status
// follows runx.Kind.HTTPStatus.
func (h *Host) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	h.Handle(mux, "POST /v1/jobs", "submit", h.handleSubmit)
	h.Handle(mux, "GET /v1/jobs", "list", h.handleList)
	h.Handle(mux, "GET /v1/jobs/{id}", "status", h.handleStatus)
	h.Handle(mux, "GET /v1/jobs/{id}/result", "result", h.handleResult)
	h.Handle(mux, "GET /healthz", "healthz", h.handleHealthz)
	h.Handle(mux, "GET /metrics", "metrics", h.handleMetrics)
	h.Handle(mux, "GET /versionz", "versionz", h.handleVersionz)
	return mux
}

// Handle registers fn on mux behind the host middleware; endpoint
// names the route in the request metrics.
func (h *Host) Handle(mux *http.ServeMux, pattern, endpoint string, fn http.HandlerFunc) {
	mux.HandleFunc(pattern, h.wrap(endpoint, fn))
}

// statusRecorder captures the response status for the access log and
// the request counters. A handler that never calls WriteHeader has
// implicitly answered 200.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// accessEntry rides the request context so handlers can attach fields
// the middleware cannot know — today just the job id a request
// concerns. The middleware owns the struct; handlers only fill it.
type accessEntry struct {
	jobID string
}

type accessKey struct{}

// setAccessJobID records the job id on the request's access-log entry.
func setAccessJobID(ctx context.Context, id string) {
	if e, ok := ctx.Value(accessKey{}).(*accessEntry); ok {
		e.jobID = id
	}
}

// wrap is the per-request middleware: a deadline on the request
// context (the same cancellation surface runx-hardened code checks),
// panic isolation (one bad handler invocation is a 500, not a dead
// daemon), per-endpoint request counters and latency histograms, and
// exactly one structured access-log line per request — shed (429) and
// drain (503) responses included, since they matter most when
// operators are staring at the log.
func (h *Host) wrap(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return h.wrapTimeout(endpoint, h.cfg.RequestTimeout, fn)
}

// wrapTimeout is wrap with an explicit request deadline, for the cell
// RPC whose in-request simulation legitimately outlives the API
// deadline.
func (h *Host) wrapTimeout(endpoint string, timeout time.Duration, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		// Extract the caller's trace context, if any: handlers and every
		// log line under this request then carry the same trace_id the
		// client minted, and sampled requests record span fragments.
		if tc, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader)); ok {
			ctx = obs.WithTraceContext(ctx, tc)
			if h.cfg.Frags != nil {
				ctx = obs.WithFragments(ctx, h.cfg.Frags)
			}
		}
		entry := &accessEntry{}
		ctx = context.WithValue(ctx, accessKey{}, entry)
		r = r.WithContext(ctx)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				err := runx.FromPanic(p, h.d.Stage+"."+r.Method+" "+r.URL.Path)
				h.cfg.Logger.LogAttrs(r.Context(), slog.LevelError, "handler panic", slog.Any("err", err))
				h.WriteError(rec, err)
			}
			if rec.status == 0 {
				rec.status = http.StatusOK
			}
			d := time.Since(start)
			h.met.httpRequest(endpoint, rec.status, d)
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", rec.status),
				slog.Duration("duration", d),
			}
			if entry.jobID != "" {
				attrs = append(attrs, slog.String("job", entry.jobID))
			}
			h.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "http request", attrs...)
		}()
		fn(rec, r)
	}
}

func (h *Host) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	dec := json.NewDecoder(io.LimitReader(r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		h.WriteError(w, runx.Newf(runx.KindInvalidInput, h.d.Stage, "decode spec: %v", err))
		return
	}
	if err := runx.CtxErr(r.Context(), h.d.Stage); err != nil {
		h.WriteError(w, err)
		return
	}
	st, err := h.SubmitCtx(r.Context(), sp)
	if err != nil {
		h.WriteError(w, err)
		return
	}
	setAccessJobID(r.Context(), st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

func (h *Host) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.List())
}

// requestedJob looks up the job a /v1/jobs/{id} request names, tagging the
// access-log line with it; an unknown id is answered 400 and reported
// absent.
func (h *Host) requestedJob(w http.ResponseWriter, r *http.Request) (*JobStatus, bool) {
	id := r.PathValue("id")
	setAccessJobID(r.Context(), id)
	st, ok := h.Status(id)
	if !ok {
		h.WriteError(w, runx.Newf(runx.KindInvalidInput, h.d.Stage, "unknown %s %q", h.d.Noun, id))
	}
	return st, ok
}

func (h *Host) handleStatus(w http.ResponseWriter, r *http.Request) {
	if st, ok := h.requestedJob(w, r); ok {
		writeJSON(w, http.StatusOK, st)
	}
}

func (h *Host) handleResult(w http.ResponseWriter, r *http.Request) {
	st, ok := h.requestedJob(w, r)
	if !ok {
		return
	}
	id := st.ID
	switch st.State {
	case StateDone:
	case StateFailed:
		h.WriteError(w, runx.Newf(runx.KindFromString(st.Kind), h.d.Stage, "%s %s failed: %s", h.d.Noun, id, st.Error))
		return
	default:
		// Not finished yet: an honest retry-later, with the same backoff
		// hint as load shedding.
		h.WriteError(w, runx.Newf(runx.KindUnavailable, h.d.Stage, "%s %s is %s (%d/%d cells)", h.d.Noun, id, st.State, st.CellsDone, st.CellsTotal))
		return
	}
	data, err := durable.ReadFileVerified(h.cfg.FS, h.ResultPath(id))
	if err != nil {
		if runx.IsKind(err, runx.KindCorrupt) {
			// The stored result no longer matches its recorded digest:
			// quarantine the damage and send the job back through the run
			// path. The sweep is deterministic (and its journal replays
			// every finished cell), so the re-run serves byte-identical
			// results; the client's Wait loop just sees a retry-later in
			// the meantime.
			if qp, qerr := durable.Quarantine(h.cfg.FS, h.ResultPath(id)); qerr == nil {
				h.met.quarantined.Inc()
				h.cfg.Logger.LogAttrs(r.Context(), slog.LevelWarn, "result failed integrity check, quarantined",
					slog.String(h.d.Noun, id), slog.String("quarantine", qp), slog.Any("err", err))
				if h.requeueForHeal(id) {
					h.met.healed.Inc()
					durable.NoteHealed()
				}
			}
			h.WriteError(w, runx.Newf(runx.KindUnavailable, h.d.Stage,
				"%s %s result failed integrity check; quarantined and re-queued for re-run", h.d.Noun, id))
			return
		}
		h.WriteError(w, runx.Newf(runx.KindCorrupt, h.d.Stage, "%s %s result unreadable: %v", h.d.Noun, id, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The body was verified against its stored digest above; stamping
	// that digest on the response lets the client extend the integrity
	// check across the wire.
	w.Header().Set(durable.DigestHeader, durable.Digest(data))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

func (h *Host) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics serves the registry in Prometheus text exposition
// format. With the default registry this is the whole process in one
// scrape: simulator core, supervisor, and service series.
func (h *Host) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.met.reg.WritePrometheus(w) // header written; a failed write has no recourse
}

func (h *Host) handleVersionz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.Version())
}

// errorBody is the structured error envelope every non-2xx response
// carries; Kind round-trips through runx.KindFromString on the client.
type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// WriteError answers with err's envelope and status; overload and
// unavailable kinds carry the Retry-After hint.
func (h *Host) WriteError(w http.ResponseWriter, err error) {
	kind := runx.KindUnknown
	if e, ok := runx.As(err); ok {
		kind = e.Kind
	}
	if kind == runx.KindOverload || kind == runx.KindUnavailable {
		h.RetryAfter(w)
	}
	writeJSON(w, kind.HTTPStatus(), errorBody{Error: err.Error(), Kind: kind.String()})
}

// RetryAfter stamps the configured backoff hint on a response.
func (h *Host) RetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(int(h.cfg.RetryAfter.Seconds()+0.5)))
}

// WriteJSON answers with v as indented JSON, for daemon routes outside
// this package.
func WriteJSON(w http.ResponseWriter, status int, v any) { writeJSON(w, status, v) }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // header already written; a failed write has no recourse
}
