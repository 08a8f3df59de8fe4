package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// The coordinator's wire surface, mounted on the owning service's mux
// (dwarnd serves it under /v2/fabric alongside the sweep API, behind
// the same obs middleware — so fabric RPCs get route metrics and
// request-id access logs like any other call).

// maxRPCBody bounds a fabric RPC body. Completions carry a full
// sim.Result (a few KB of counters); everything else is tiny.
const maxRPCBody = 8 << 20

// Routes mounts the fabric API.
func (c *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v2/fabric/workers", c.handleRegister)
	mux.HandleFunc("POST /v2/fabric/lease", c.handleLease)
	mux.HandleFunc("POST /v2/fabric/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v2/fabric/complete", c.handleComplete)
	mux.HandleFunc("GET /v2/fabric", c.handleStatus)
	mux.HandleFunc("GET /v2/fabric/ckpt/{key}", c.handleCkptGet)
	mux.HandleFunc("POST /v2/fabric/ckpt/{key}", c.handleCkptPut)
}

func fabricJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func fabricError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnknownWorker):
		// 404: the worker re-registers and carries on — the standard
		// recovery after a coordinator restart or a silence expiry.
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	fabricJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeRPC(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRPCBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		fabricJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf("fabric: bad request body: %v", err)})
		return false
	}
	return true
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	ws, err := c.register(req)
	if err != nil {
		fabricError(w, err)
		return
	}
	fabricJSON(w, http.StatusOK, RegisterResponse{
		WorkerID:       ws.id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > 30*time.Second {
		wait = 30 * time.Second
	}
	leases, err := c.leaseBatch(r.Context(), req.WorkerID, req.Max, wait)
	if err != nil {
		fabricError(w, err)
		return
	}
	fabricJSON(w, http.StatusOK, LeaseResponse{
		Leases:         leases,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	resp, err := c.heartbeat(req)
	if err != nil {
		fabricError(w, err)
		return
	}
	fabricJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeRPC(w, r, &req) {
		return
	}
	resp, err := c.complete(req)
	if err != nil {
		fabricError(w, err)
		return
	}
	fabricJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	fabricJSON(w, http.StatusOK, c.Status())
}
