// Package service exposes the simulator as a long-lived HTTP service
// with one execution path. Every submission is a record that
// startSweep admits: a sweep is a record of grid cells, and a single
// run (POST /v2/runs, or its /v1/simulations adapter) is a record with
// one public cell. Each record is prechecked against the result store
// (a stored result completes it at submission time), durably journaled
// when a journal is configured, and executed on one server-wide
// internal/exec executor: one bounded pool, one single-flight domain,
// per-record cancellation. Baselines cells add hidden solo-ICOUNT
// cells to the same batch, and the record's summary is derived from
// them when it finishes. The executor's store is a count-bounded LRU
// of results, tiered over a durable store with -store, so identical
// requests — including the solo baselines behind every Hmean — are
// paid for once across runs, sweeps, and API versions. The /v2
// endpoints speak internal/spec natively; the /v1 handlers are thin
// adapters that translate their request shapes into the same RunSpecs.
// See DESIGN.md §dwarnd for the architecture.
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

// SimulationRequest is the body of POST /v1/simulations: one machine ×
// policy × workload run. Zero-valued protocol fields take the sim
// package defaults, so the empty request minus Policy/Workload is
// valid. Internally it is an adapter: Spec() translates it to the
// canonical spec.RunSpec every run is keyed by.
type SimulationRequest struct {
	// Machine names a configuration: "baseline" (default), "small", "deep".
	Machine string `json:"machine,omitempty"`
	// Policy is a fetch policy registry name ("dwarn", "icount", ...).
	Policy string `json:"policy"`
	// Workload names a Table 2(b) workload ("4-MIX"). Exactly one of
	// Workload and Benchmarks must be set.
	Workload string `json:"workload,omitempty"`
	// Benchmarks builds a custom workload from benchmark names instead.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Trace replays an uploaded uop trace (POST /v1/traces) instead of
	// running synthetic generators: its value is the trace id (content
	// digest, or an unambiguous prefix of at least 8 characters).
	// Mutually exclusive with Workload and Benchmarks.
	Trace string `json:"trace,omitempty"`
	// Seed drives all synthetic randomness (0 = the default seed).
	Seed uint64 `json:"seed,omitempty"`
	// WarmupCycles and MeasureCycles control the protocol (0 = defaults).
	WarmupCycles  int64 `json:"warmup_cycles,omitempty"`
	MeasureCycles int64 `json:"measure_cycles,omitempty"`
	// Baselines additionally runs each benchmark solo under ICOUNT (each
	// a cache entry of its own) and reports relative-IPC metrics.
	Baselines bool `json:"baselines,omitempty"`
}

// Spec translates the v1 request into the canonical run spec. The
// translation is total; validation happens when the spec is resolved.
func (req *SimulationRequest) Spec() spec.RunSpec {
	var machine *spec.Machine
	if req.Machine != "" {
		machine = &spec.Machine{Name: req.Machine}
	}
	return spec.RunSpec{
		Machine: machine,
		Policy:  spec.Policy{Name: req.Policy},
		Workload: spec.Workload{
			Name:       req.Workload,
			Benchmarks: req.Benchmarks,
			Trace:      req.Trace,
		},
		Seed:          req.Seed,
		WarmupCycles:  req.WarmupCycles,
		MeasureCycles: req.MeasureCycles,
		Baselines:     req.Baselines,
	}
}

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

// JobView is the JSON shape of a run in API responses
// (/v1/simulations and /v2/runs).
type JobView struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Request     any             `json:"request,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	Error       string          `json:"error,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   *time.Time      `json:"started_at,omitempty"`
	FinishedAt  *time.Time      `json:"finished_at,omitempty"`
}

// SweepRequest is the body of POST /v1/sweeps: the cross product of
// machines × policies × workloads fans out into one cell each. Like
// SimulationRequest it is an adapter over the spec grid form.
type SweepRequest struct {
	// Machines defaults to ["baseline"].
	Machines []string `json:"machines,omitempty"`
	// Policies defaults to the six paper policies.
	Policies []string `json:"policies,omitempty"`
	// Workloads names Table 2(b) workloads; required unless Trace is
	// set.
	Workloads []string `json:"workloads,omitempty"`
	// Trace sweeps policies over one uploaded trace instead of
	// synthetic workloads (the byte-exact cross-policy comparison
	// traces exist for). Mutually exclusive with Workloads.
	Trace string `json:"trace,omitempty"`
	// Seed, WarmupCycles, MeasureCycles as in SimulationRequest.
	Seed          uint64 `json:"seed,omitempty"`
	WarmupCycles  int64  `json:"warmup_cycles,omitempty"`
	MeasureCycles int64  `json:"measure_cycles,omitempty"`
	// Baselines adds relative-IPC metrics to every cell.
	Baselines bool `json:"baselines,omitempty"`
}

// Spec translates the v1 sweep into the canonical grid form.
func (req *SweepRequest) Spec() (spec.SweepSpec, error) {
	switch {
	case req.Trace != "" && len(req.Workloads) > 0:
		return spec.SweepSpec{}, fmt.Errorf("service: set workloads or trace, not both")
	case req.Trace == "" && len(req.Workloads) == 0:
		return spec.SweepSpec{}, fmt.Errorf("service: sweep needs at least one workload or a trace")
	}

	var machines []spec.Machine
	for _, m := range req.Machines {
		machines = append(machines, spec.Machine{Name: m})
	}
	var policies []spec.PolicyAxis
	for _, p := range req.Policies {
		policies = append(policies, spec.PolicyAxis{Name: p})
	}
	var workloads []spec.Workload
	if req.Trace != "" {
		workloads = []spec.Workload{{Trace: req.Trace}}
	} else {
		for _, w := range req.Workloads {
			workloads = append(workloads, spec.Workload{Name: w})
		}
	}
	var seeds []uint64
	if req.Seed != 0 {
		seeds = []uint64{req.Seed}
	}
	return spec.SweepSpec{
		Machines:      machines,
		Policies:      policies,
		Workloads:     workloads,
		Seeds:         seeds,
		WarmupCycles:  req.WarmupCycles,
		MeasureCycles: req.MeasureCycles,
		Baselines:     req.Baselines,
	}, nil
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

// SweepStatus is the response for GET /v1/sweeps/{id} and /v2/sweeps/{id}.
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
