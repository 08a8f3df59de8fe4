package service

import (
	"fmt"
	"net/http"

	"dwarn/internal/core"
	"dwarn/internal/obs"
	"dwarn/internal/spec"
)

// The API speaks internal/spec: POST /v2/runs takes a spec.RunSpec,
// POST /v2/sweeps a spec.SweepSpec. Both resolve through one code path,
// so a run has one fingerprint and one cache entry whichever CLI or
// client asked for it. Sweeps additionally expose partial progress
// (GET /v2/sweeps/{id}), a live SSE completion stream
// (GET /v2/sweeps/{id}/events), and cooperative cancellation
// (DELETE /v2/sweeps/{id}).

// RunAccepted is the response of POST /v2/runs: the run's JobView plus
// the content-addressed identity of the run it executes (or was served
// from the store for).
type RunAccepted struct {
	JobView
	Fingerprint string `json:"fingerprint"`
	// Canonical is the canonical form of the submitted spec: defaults
	// applied, machine fully resolved, policy parameters completed.
	Canonical *spec.RunSpec `json:"canonical,omitempty"`
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v2/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /v2/machines", s.handleMachines)
	s.mux.HandleFunc("GET /v2/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v2/benchmarks", s.handleBenchmarks)
	s.mux.HandleFunc("POST /v2/runs", s.handleSubmitRun)
	s.mux.HandleFunc("GET /v2/runs", s.handleListRuns)
	s.mux.HandleFunc("GET /v2/runs/{id}", s.handleGetRun)
	s.mux.HandleFunc("GET /v2/runs/{id}/timeline", s.handleRunTimeline)
	s.mux.HandleFunc("DELETE /v2/runs/{id}", s.handleCancelRun)
	s.mux.HandleFunc("POST /v2/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v2/sweeps/{id}", s.handleGetSweep)
	s.mux.HandleFunc("GET /v2/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("DELETE /v2/sweeps/{id}", s.handleCancelSweep)
	s.mux.HandleFunc("POST /v2/traces", s.handleUploadTrace)
	s.mux.HandleFunc("GET /v2/traces", s.handleListTraces)
	s.mux.HandleFunc("GET /v2/traces/{id}", s.handleGetTrace)
}

// handlePolicies lists the registry with its declared parameters —
// the data a client needs to build parameterised policy references and
// sweep grids without guessing.
func (s *Server) handlePolicies(w http.ResponseWriter, r *http.Request) {
	type policy struct {
		Name   string           `json:"name"`
		Params []core.ParamSpec `json:"params,omitempty"`
	}
	var out []policy
	for _, name := range core.Policies() {
		params, err := core.PolicyParams(name)
		if err != nil {
			continue
		}
		out = append(out, policy{Name: name, Params: params})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"policies": out,
		"paper":    core.PaperPolicies(),
	})
}

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var rs spec.RunSpec
	if !s.decode(w, r, &rs) {
		return
	}
	res, err := s.resolveSpec(rs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	v, err := s.submitRun(r.Context(), res)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, RunAccepted{JobView: v, Fingerprint: res.Fingerprint, Canonical: &res.Spec})
}

// handleRunTimeline returns a finished run's interval frames. Timeline
// sampling is non-semantic (it never changes a run's fingerprint), so a
// run whose result was served from a cache entry computed without
// sampling legitimately has no frames — that case is a 404 naming the
// cause, not an empty timeline.
func (s *Server) handleRunTimeline(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(s.runs, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	s.mu.Lock()
	v, payload := s.runViewLocked(sw)
	s.mu.Unlock()
	if v.State != StateDone {
		writeError(w, http.StatusConflict, fmt.Errorf("service: job %q is %s, not done", v.ID, v.State))
		return
	}
	if payload == nil || payload.Result.Timeline == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf(
			"service: run %q has no timeline: the spec did not request sampling, or the result was served from a cache entry computed without it", v.ID))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":          v.ID,
		"fingerprint": payload.Fingerprint,
		"timeline":    payload.Result.Timeline,
	})
}

// Preload submits a spec file as one sweep, warming the result store
// before traffic arrives (dwarnd's -spec flag), and returns its status.
// Cells are bounded like any sweep; trace references would resolve
// against the trace store, which is empty at startup, so preload specs
// are synthetic-workload only in practice. Every cell is resolved
// (validated) before anything is submitted, so a bad spec file fails
// without side effects.
func (s *Server) Preload(f *spec.File) (*SweepStatus, error) {
	runs, err := f.Runs(s.opts.MaxSweepCells)
	if err != nil {
		return nil, err
	}
	cells, err := s.resolveCells(runs)
	if err != nil {
		return nil, err
	}
	sw, err := s.startSweep(sweepStart{cells: cells, trace: "preload"})
	if err != nil {
		return nil, err
	}
	return s.sweepStatus(sw), nil
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var ss spec.SweepSpec
	if !s.decode(w, r, &ss) {
		return
	}
	cells, err := s.resolveSweep(ss)
	if err != nil {
		// Validation failures — including a grid that fans out beyond
		// the configured cell bound (spec.ErrTooManyCells names the
		// limit) — are client errors, reported before any record exists.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sw, err := s.startSweep(sweepStart{cells: cells, trace: obs.TraceID(r.Context())})
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.sweepStatus(sw))
}
