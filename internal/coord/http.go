package coord

import (
	"encoding/json"
	"io"
	"net/http"

	"deesim/internal/runx"
	"deesim/internal/server"
)

const maxBodyBytes = 1 << 20

// RegisterRequest is the body of POST /v1/workers: a deesimd instance
// announcing itself to the coordinator.
type RegisterRequest struct {
	URL   string `json:"url"`
	Slots int    `json:"slots"`
}

// RegisterResponse tells the worker its assigned id and the heartbeat
// cadence the coordinator expects.
type RegisterResponse struct {
	ID             string `json:"id"`
	HeartbeatEvery string `json:"heartbeat_every"`
}

// HeartbeatRequest is the body of POST /v1/workers/{id}/heartbeat.
type HeartbeatRequest struct {
	State    string `json:"state"` // ready|busy|draining
	Inflight int    `json:"inflight"`
}

// Handler returns the coordinator HTTP API: the job host's routes —
// the /v1/jobs surface is shape-identical to deesimd's, so the existing
// client (and deesimctl) drive a distributed sweep with zero new verbs
// — plus the fleet membership surface and the merged trace:
//
//	POST /v1/workers                 register a worker
//	POST /v1/workers/{id}/heartbeat  worker liveness + tri-state
//	GET  /v1/workers                 fleet listing
//	GET  /v1/trace/{id}              one sweep's merged fleet timeline
//	GET  /readyz                     readiness (503 while draining)
func (c *Coordinator) Handler() http.Handler {
	mux := c.Routes()
	c.Handle(mux, "POST /v1/workers", "register", c.handleRegister)
	c.Handle(mux, "POST /v1/workers/{id}/heartbeat", "heartbeat", c.handleHeartbeat)
	c.Handle(mux, "GET /v1/workers", "fleet", c.handleFleet)
	c.Handle(mux, "GET /v1/trace/{id}", "trace", c.handleTrace)
	c.Handle(mux, "GET /readyz", "readyz", c.handleReadyz)
	return mux
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "decode register request: %v", err))
		return
	}
	id, every, err := c.RegisterWorker(req.URL, req.Slots)
	if err != nil {
		c.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, RegisterResponse{ID: id, HeartbeatEvery: every.String()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		c.WriteError(w, runx.Newf(runx.KindInvalidInput, stageCoord, "decode heartbeat: %v", err))
		return
	}
	if err := c.HeartbeatWorker(r.PathValue("id"), req.State, req.Inflight); err != nil {
		c.WriteError(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, c.Fleet())
}

func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if c.Draining() {
		c.RetryAfter(w)
		server.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
