// Package fabric is the distributed sweep layer: remote `dwarnd
// -worker` processes take cells from the dwarnd executor's wait line —
// the same line its local slots drain — run them on an executor of
// their own, and push results back.
//
// The Coordinator (embedded in dwarnd) is only the remote half of that
// line: the worker registry, leases, heartbeats and the expiry janitor.
// The executor keeps everything else — queueing, memoization, store
// writes, single-flight by fingerprint, cancellation — so the /v2
// sweep API, SSE progress and admission behave the same whether a cell
// ran in-process or on a worker. Fault tolerance is lease-based: a
// lease not renewed within its TTL (worker died, was SIGKILLed, or
// partitioned) is requeued into the executor's line and taken by the
// next local slot or worker; a late completion from the presumed-dead
// worker is accepted if the cell is still unresolved and discarded as
// stale otherwise, so a cell completes exactly once no matter how many
// workers raced on it.
//
// The wire protocol is five small JSON-over-HTTP calls mounted under
// /v2/fabric on the coordinator's ordinary service mux: workers
// register, pull lease batches (long-polling when the line is idle),
// renew leases with heartbeats, push completions, and anyone can GET
// /v2/fabric for the live fleet status. Every RPC carries the cell's
// originating X-Request-ID, so one trace id spans coordinator →
// worker → engine log lines.
package fabric

import (
	"time"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// Defaults for the lease protocol. The TTL is deliberately generous
// next to a cell's wall time (milliseconds): requeueing a live
// worker's cell would waste work, while a dead worker's cells are only
// delayed, never lost.
const (
	// DefaultLeaseTTL is how long a lease lives without renewal.
	DefaultLeaseTTL = 15 * time.Second
	// DefaultWorkerTTL is how long a silent worker stays registered;
	// past it the worker is dropped and its leases requeued.
	DefaultWorkerTTL = 60 * time.Second
	// DefaultMaxLeaseBatch bounds cells granted per lease call.
	DefaultMaxLeaseBatch = 8
	// DefaultLeaseWait bounds how long a lease call long-polls an
	// empty line before returning no leases.
	DefaultLeaseWait = 2 * time.Second
)

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	// Name labels the worker in status and logs (hostname-pid style).
	Name string `json:"name"`
	// Capacity is how many cells the worker runs concurrently.
	Capacity int `json:"capacity"`
	// PID is informational (shown in status).
	PID int `json:"pid,omitempty"`
}

// RegisterResponse assigns the worker its identity and the protocol
// timings it must honour.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMillis is the lease TTL; workers heartbeat well inside it.
	LeaseTTLMillis int64 `json:"lease_ttl_ms"`
}

// LeaseRequest pulls a batch of pending cells.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	// Max bounds the batch; the coordinator may return fewer (or none,
	// after WaitMillis of long-polling an empty line).
	Max int `json:"max"`
	// WaitMillis long-polls an empty line up to this long.
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

// Lease is one cell granted to one worker for one TTL window.
type Lease struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	// Spec is the cell's canonical RunSpec: self-contained (inline
	// machine config, completed policy params, explicit protocol), so
	// the worker re-resolves it to the identical fingerprint with no
	// shared state beyond this payload.
	Spec spec.RunSpec `json:"spec"`
	// Trace is the submitting request's trace id; the worker attaches
	// it to the engine context and echoes it as X-Request-ID on the
	// completion RPC, so one id spans coordinator → worker → engine.
	Trace string `json:"trace,omitempty"`
}

// LeaseResponse carries the granted batch.
type LeaseResponse struct {
	Leases         []Lease `json:"leases"`
	LeaseTTLMillis int64   `json:"lease_ttl_ms"`
}

// HeartbeatRequest renews the worker's liveness and its active leases.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	LeaseIDs []string `json:"lease_ids,omitempty"`
}

// HeartbeatResponse tells the worker which of its cells to abandon.
type HeartbeatResponse struct {
	// Canceled lists leases whose cells no longer matter (the sweep
	// was cancelled); the worker stops those simulations.
	Canceled []string `json:"canceled,omitempty"`
}

// CompleteRequest pushes one finished cell.
type CompleteRequest struct {
	WorkerID    string `json:"worker_id"`
	LeaseID     string `json:"lease_id"`
	Fingerprint string `json:"fingerprint"`
	// Result is the finished simulation (nil when Error is set).
	Result *sim.Result `json:"result,omitempty"`
	// Error reports a genuine simulation failure. Workers never report
	// their own shutdown this way — they just stop heartbeating and
	// let the lease expire, so a dying worker cannot poison a cell.
	Error string `json:"error,omitempty"`
}

// CompleteResponse acknowledges a completion.
type CompleteResponse struct {
	// Accepted: the result (or error) resolved the cell.
	Accepted bool `json:"accepted"`
	// Stale: the cell was already resolved (double completion, or a
	// re-leased twin finished first); the payload was discarded.
	Stale bool `json:"stale,omitempty"`
}

// Status is the GET /v2/fabric view: the executor's line depth, the
// fleet, and the lifetime counters, assembled under the coordinator's
// lock.
type Status struct {
	Enabled        bool           `json:"enabled"`
	QueueDepth     int            `json:"queue_depth"`
	ActiveLeases   int            `json:"active_leases"`
	LeaseTTLMillis int64          `json:"lease_ttl_ms"`
	LeasesTotal    uint64         `json:"leases_total"`
	RequeuesTotal  uint64         `json:"requeues_total"`
	CompletedTotal uint64         `json:"completed_total"`
	FailedTotal    uint64         `json:"failed_total"`
	StaleTotal     uint64         `json:"stale_total"`
	Workers        []WorkerStatus `json:"workers"`
}

// WorkerStatus is one worker's row in Status.
type WorkerStatus struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	PID      int    `json:"pid,omitempty"`
	Capacity int    `json:"capacity"`
	// ActiveLeases is the worker's currently held leases.
	ActiveLeases int `json:"active_leases"`
	// CellsDone / CellsFailed count accepted completions.
	CellsDone   uint64 `json:"cells_done"`
	CellsFailed uint64 `json:"cells_failed"`
	// Requeues counts this worker's leases that expired unrenewed.
	Requeues uint64 `json:"requeues"`
	// CellsPerSec is CellsDone over the worker's registered lifetime.
	CellsPerSec float64 `json:"cells_per_sec"`
	// LastSeenMillis is the time since the worker's last RPC.
	LastSeenMillis int64 `json:"last_seen_ms"`
}
