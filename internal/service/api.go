// Package service exposes the simulator as a long-lived HTTP service
// with one API and one execution path. POST /v2/runs takes a
// spec.RunSpec and POST /v2/sweeps a spec.SweepSpec; both resolve
// through internal/spec, so a run has one fingerprint whichever
// frontend asked for it. Every submission is a record that startSweep
// admits: a sweep is a record of grid cells, and a single run is a
// record with one public cell. Each record is prechecked against the
// result store (a stored result completes it at submission time),
// durably journaled when a journal is configured, and executed on one
// server-wide internal/exec executor: one wait line, one
// single-flight domain, per-record cancellation. A baselines cell's
// relative-IPC summary comes from the executor with the cell's terminal
// event. The executor's store is a count-bounded LRU of results,
// tiered over a durable store with -store, so identical requests —
// including the solo baselines behind every Hmean — are paid for once
// across runs and sweeps. See DESIGN.md §dwarnd for the architecture.
package service

import (
	"encoding/json"
	"fmt"
	"time"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
	"dwarn/internal/timeline"
)

// SimulationResult is the payload of a finished run. Repeat
// submissions of an identical request are served byte-for-byte
// identical payloads from the result store.
type SimulationResult struct {
	// Fingerprint is the content-addressed identity of the run.
	Fingerprint string `json:"fingerprint"`
	// Result is the simulator's full measurement record.
	Result *sim.Result `json:"result"`
	// Summary holds relative-IPC metrics; only with Baselines.
	Summary *stats.Summary `json:"summary,omitempty"`
}

// JobView is the JSON shape of a run in /v2/runs responses. Request
// is the run's canonical spec.
type JobView struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Request     *spec.RunSpec   `json:"request,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
}

// SweepCell is one grid point of a sweep's status. A cell has no run
// id, and one failing cell never aborts its siblings — its error is
// recorded here while the rest of the sweep completes.
type SweepCell struct {
	Machine  string `json:"machine"`
	Policy   string `json:"policy"`
	Workload string `json:"workload,omitempty"`
	Trace    string `json:"trace,omitempty"`
	// Seed is the cell's resolved seed (sweeps may replicate over seeds).
	Seed uint64 `json:"seed,omitempty"`
	// Fingerprint is the cell's content-addressed run identity; the
	// full result is available by submitting the same spec to /v2/runs
	// (served from the shared cache).
	Fingerprint string `json:"fingerprint,omitempty"`
	// State is queued, running, done, failed, or canceled.
	State string `json:"state"`
	// Cached reports the cell was served from the result store (an
	// earlier run, a concurrent sweep, or a duplicate cell in this one).
	Cached bool `json:"cached,omitempty"`
	// Throughput is filled in once the cell is done.
	Throughput *float64 `json:"throughput,omitempty"`
	// Hmean and WeightedSpeedup are filled in for Baselines sweeps once
	// the cell's solo baselines have completed.
	Hmean           *float64 `json:"hmean,omitempty"`
	WeightedSpeedup *float64 `json:"weighted_speedup,omitempty"`
	// Error is the cell's own failure; the sweep keeps going.
	Error string `json:"error,omitempty"`
}

// SweepStatus is the response for GET /v2/sweeps/{id}.
type SweepStatus struct {
	ID          string    `json:"id"`
	State       string    `json:"state"` // running | done | failed | canceled
	SubmittedAt time.Time `json:"submitted_at"`
	// Recovered marks a sweep resumed from the journal after a restart;
	// already-stored cells completed from the store, the rest re-ran.
	Recovered bool `json:"recovered,omitempty"`
	Total     int  `json:"total"`
	Running   int  `json:"running,omitempty"`
	Done      int  `json:"done"`
	Failed    int  `json:"failed"`
	Canceled  int  `json:"canceled"`
	// Error reports a sweep-level failure (e.g. rejected at shutdown).
	Error string      `json:"error,omitempty"`
	Cells []SweepCell `json:"cells"`
}

// SweepEventFrame is the State of a live timeline interval event on the
// sweep SSE stream (sent as SSE event name "frame"); all other states
// are per-cell transitions (SSE event name "cell").
const SweepEventFrame = "frame"

// SweepEvent is one frame of the GET /v2/sweeps/{id}/events SSE stream:
// a per-cell state transition plus a progress snapshot, or — for cells
// whose spec requested timeline sampling — a live interval frame as it
// closes inside the running simulation. The stream replays a sweep's
// full event history from the start, then follows live until the sweep
// is terminal, where a final "end" event carries the finished
// SweepStatus.
type SweepEvent struct {
	// Seq numbers events from 0 within the sweep.
	Seq int `json:"seq"`
	// Index is the cell's position in SweepStatus.Cells.
	Index int `json:"index"`
	// Fingerprint and State identify the transition (exec cell states:
	// started, done, cached, failed, canceled — or "frame").
	Fingerprint string `json:"fingerprint"`
	State       string `json:"state"`
	// Throughput is set on done/cached transitions.
	Throughput *float64 `json:"throughput,omitempty"`
	Error      string   `json:"error,omitempty"`
	// Frame is the interval frame of a "frame" event.
	Frame *timeline.Frame `json:"frame,omitempty"`
	// Progress snapshot after this event.
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	Total    int `json:"total"`
}

// checkCycles validates requested run lengths against the per-run cap.
func checkCycles(warmup, measure, maxCycles int64) error {
	if warmup < 0 || measure < 0 {
		return fmt.Errorf("service: cycle counts must be non-negative")
	}
	if maxCycles > 0 && (warmup > maxCycles || measure > maxCycles) {
		return fmt.Errorf("service: cycle counts capped at %d per run", maxCycles)
	}
	return nil
}
