package server

import (
	"net/http"
	"net/http/pprof"
	"time"

	"deesim/internal/obs"
	"deesim/internal/runx"
)

// Handler returns the deesimd HTTP API: the host routes (Routes) plus
//
//	POST /v1/cells            run one leased distributed-sweep cell
//	GET  /readyz              readiness (503 while draining)
//	GET  /v1/tracefrag        this process's span fragments
//	GET  /debug/pprof/*       profiling (only when Config.Pprof is set)
func (s *Server) Handler() http.Handler {
	mux := s.Routes()
	// The cell RPC runs a whole simulation inside the request, so it
	// gets the cell deadline (plus shedding slack), not the API one.
	mux.HandleFunc("POST /v1/cells", s.wrapTimeout("cell", s.cfg.CellTimeout+5*time.Second, s.handleCell))
	s.Handle(mux, "GET /readyz", "readyz", s.handleReadyz)
	s.Handle(mux, "GET /v1/tracefrag", "tracefrag", s.handleTraceFrag)
	if s.cfg.Pprof {
		// Registered without wrap: a CPU profile legitimately outlives
		// the API request deadline, and pprof output is not JSON.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleTraceFrag serves this process's span fragments, optionally
// filtered to one trace id (?trace=<32hex>). The coordinator's
// timeline merge calls it on every worker; the response is a JSON
// array of SpanFragment objects (null when this process records none).
func (s *Server) handleTraceFrag(w http.ResponseWriter, r *http.Request) {
	frags, err := obs.ReadFragments(s.cfg.Frags.Path(), r.URL.Query().Get("trace"))
	if err != nil {
		s.WriteError(w, runx.Newf(runx.KindUnknown, stageServer, "read fragments: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, frags)
}

// ReadyStatus is the /readyz body. Status is the worker tri-state —
// "ready", "busy" (every cell slot occupied; still 200, the process
// serves), or "draining" (503) — reported distinctly so a coordinator
// stops leasing to draining workers instead of burning a lease to find
// out. Degraded marks low-disk mode: the worker reports draining (and
// sheds) until a durable probe write succeeds again, but the flag
// tells operators it is disk pressure, not shutdown.
type ReadyStatus struct {
	Status        string `json:"status"`
	CellsInflight int    `json:"cells_inflight"`
	CellSlots     int    `json:"cell_slots"`
	Degraded      bool   `json:"degraded,omitempty"`
	// Brownout is the current brownout level (0 normal … 3 reads only;
	// see brownout.go), so operators and load balancers can see graceful
	// degradation coming before hard sheds start.
	Brownout int `json:"brownout_level"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := ReadyStatus{
		Status:        s.WorkerState(),
		CellsInflight: s.CellsActive(),
		CellSlots:     s.CellSlots(),
		Degraded:      s.Degraded(),
		Brownout:      s.BrownoutLevel(),
	}
	code := http.StatusOK
	if st.Status == WorkerDraining {
		code = http.StatusServiceUnavailable
		s.RetryAfter(w)
	}
	writeJSON(w, code, st)
}
