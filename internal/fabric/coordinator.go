package fabric

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
)

// ErrUnknownWorker reports a lease/heartbeat/complete RPC from a
// worker id the coordinator does not know — a worker that outlived a
// coordinator restart, or one already expired for silence. The HTTP
// layer maps it to 404; workers react by re-registering.
var ErrUnknownWorker = errors.New("fabric: unknown worker")

// ErrClosed reports work submitted to a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// Config tunes a Coordinator. Zero values take the package defaults.
type Config struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat.
	LeaseTTL time.Duration
	// WorkerTTL is how long a silent worker stays registered.
	WorkerTTL time.Duration
	// MaxLeaseBatch bounds cells granted per lease call.
	MaxLeaseBatch int
	// Registry receives the fabric metrics (nil = obs.Default).
	Registry *obs.Registry
	// Logger receives lease lifecycle logs (nil = discard).
	Logger *obs.Logger
	// Checkpoints, when non-nil, is served under /v2/fabric/ckpt/{key}:
	// remote workers pull post-prewarm machine images by checkpoint key
	// and push the ones they build, so a sweep group warmed anywhere in
	// the fleet is forked everywhere. Nil disables the endpoint (404).
	Checkpoints ckpt.Store
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = DefaultLeaseTTL
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = DefaultWorkerTTL
		if c.WorkerTTL < 4*c.LeaseTTL {
			c.WorkerTTL = 4 * c.LeaseTTL
		}
	}
	if c.MaxLeaseBatch <= 0 {
		c.MaxLeaseBatch = DefaultMaxLeaseBatch
	}
	if c.Registry == nil {
		c.Registry = obs.Default
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// lease is one grant of one cell to one worker for one TTL window.
type lease struct {
	id       string
	fp       string
	workerID string
	expires  time.Time
}

// workerState is the coordinator's view of one worker.
type workerState struct {
	id         string
	name       string
	pid        int
	capacity   int
	registered time.Time
	lastSeen   time.Time
	active     int
	done       uint64
	failed     uint64
	requeues   uint64
}

// Coordinator is the remote half of an executor's wait line: the worker
// registry and the lease table. Remote workers take cells from the
// executor's line through leases, complete them by fingerprint, and
// lease expiry requeues the cells of workers that die mid-flight. The
// cells themselves — queueing, single-flight, cancellation — stay in
// the executor.
type Coordinator struct {
	cfg  Config
	line *exec.Executor
	log  *obs.Logger
	met  *coordMetrics

	ctx  context.Context // done once closed: ends long-polls and the janitor
	stop context.CancelFunc

	mu        sync.Mutex
	closed    bool
	workers   map[string]*workerState
	leases    map[string]*lease
	workerSeq uint64
	leaseSeq  uint64
}

// NewCoordinator builds a coordinator over an executor's wait line and
// starts its lease janitor.
func NewCoordinator(line *exec.Executor, cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	c := &Coordinator{
		cfg:     cfg,
		line:    line,
		log:     cfg.Logger,
		ctx:     ctx,
		stop:    stop,
		workers: make(map[string]*workerState),
		leases:  make(map[string]*lease),
	}
	c.met = newCoordMetrics(cfg.Registry, c)
	go c.janitor()
	return c
}

// Close stops the janitor and fails the cells remote workers hold.
// Remote workers discover the closure on their next RPC.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.stop()
	for id, l := range c.leases {
		c.line.Resolve(l.fp, nil, ErrClosed)
		delete(c.leases, id)
	}
}

// register adds a worker to the fleet.
func (c *Coordinator) register(req RegisterRequest) (*workerState, error) {
	if req.Capacity <= 0 {
		req.Capacity = 1
	}
	if req.Name == "" {
		req.Name = "worker"
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	c.workerSeq++
	w := &workerState{
		id:         fmt.Sprintf("w-%06d", c.workerSeq),
		name:       req.Name,
		pid:        req.PID,
		capacity:   req.Capacity,
		registered: time.Now(),
		lastSeen:   time.Now(),
	}
	c.workers[w.id] = w
	c.log.Info("fabric worker registered", "worker", w.id, "name", w.name, "capacity", w.capacity)
	return w, nil
}

// touchLocked marks a worker seen, or reports why it cannot act.
func (c *Coordinator) touchLocked(workerID string) (*workerState, error) {
	if c.closed {
		return nil, ErrClosed
	}
	w, ok := c.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	return w, nil
}

// leaseBatch takes up to n cells from the executor's line for the
// worker, long-polling an empty line up to wait (or until ctx, the
// worker's request, ends), and leases them to it.
func (c *Coordinator) leaseBatch(ctx context.Context, workerID string, n int, wait time.Duration) ([]Lease, error) {
	c.mu.Lock()
	_, err := c.touchLocked(workerID)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	defer context.AfterFunc(c.ctx, cancel)()
	taken, err := c.line.Take(ctx, min(n, c.cfg.MaxLeaseBatch))
	if err != nil {
		if c.ctx.Err() != nil {
			return nil, ErrClosed
		}
		return nil, nil // the long-poll ran out
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.touchLocked(workerID)
	if err != nil {
		// Closed or expired while polling: the cells go back.
		for _, t := range taken {
			c.line.Requeue(t.Cell.Fingerprint)
		}
		return nil, err
	}
	out := make([]Lease, len(taken))
	for i, t := range taken {
		c.leaseSeq++
		l := &lease{
			id:       fmt.Sprintf("l-%08d", c.leaseSeq),
			fp:       t.Cell.Fingerprint,
			workerID: w.id,
			expires:  time.Now().Add(c.cfg.LeaseTTL),
		}
		c.leases[l.id] = l
		w.active++
		c.met.leases.Inc()
		out[i] = Lease{ID: l.id, Fingerprint: l.fp, Spec: t.Cell.Spec, Trace: t.Trace}
	}
	return out, nil
}

// heartbeat renews the worker and its listed leases, and reports which
// leases the worker must abandon: those whose cell is no longer wanted
// (its sweep was canceled, or another completion resolved it).
func (c *Coordinator) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.touchLocked(req.WorkerID); err != nil {
		return HeartbeatResponse{}, err
	}
	var resp HeartbeatResponse
	for _, id := range req.LeaseIDs {
		l, ok := c.leases[id]
		if !ok || l.workerID != req.WorkerID {
			continue
		}
		if !c.line.Wanted(l.fp) {
			resp.Canceled = append(resp.Canceled, id)
			c.retireLeaseLocked(l)
			continue
		}
		l.expires = time.Now().Add(c.cfg.LeaseTTL)
	}
	return resp, nil
}

// retireLeaseLocked drops a lease and its worker's active count.
func (c *Coordinator) retireLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	if w, ok := c.workers[l.workerID]; ok && w.active > 0 {
		w.active--
	}
}

// complete resolves a cell with a worker's pushed result. Matching is
// by fingerprint, not lease: a completion from an expired lease still
// resolves the cell if no one else has (the work is done — discarding
// it would only pay twice), while a cell already resolved — by a
// racing re-lease, a local slot, or a duplicate push — reports stale
// and the payload is dropped, which is what makes completion
// idempotent.
func (c *Coordinator) complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, err := c.touchLocked(req.WorkerID)
	if err != nil {
		return CompleteResponse{}, err
	}
	if l, ok := c.leases[req.LeaseID]; ok {
		c.retireLeaseLocked(l)
	}
	var res *sim.Result
	switch {
	case req.Error != "":
		err = fmt.Errorf("fabric: worker %s: %s", w.name, req.Error)
	case req.Result == nil:
		err = fmt.Errorf("fabric: worker %s pushed an empty completion", w.name)
	default:
		res = req.Result
	}
	if !c.line.Resolve(req.Fingerprint, res, err) {
		c.met.stale.Inc()
		return CompleteResponse{Stale: true}, nil
	}
	if err != nil {
		w.failed++
		c.met.failed.Inc()
	} else {
		w.done++
		c.met.completed.Inc()
	}
	return CompleteResponse{Accepted: true}, nil
}

// janitor periodically expires unrenewed leases (requeueing their
// cells) and drops workers silent past WorkerTTL.
func (c *Coordinator) janitor() {
	tick := c.cfg.LeaseTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
			c.sweepExpired(time.Now())
		}
	}
}

// sweepExpired is one janitor pass: expire silent workers (and with
// them every lease they held), then requeue the cells behind expired
// leases into the executor's line.
func (c *Coordinator) sweepExpired(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.WorkerTTL {
			continue
		}
		c.log.Warn("fabric worker expired", "worker", w.id, "name", w.name, "active_leases", w.active)
		delete(c.workers, id)
		for _, l := range c.leases {
			if l.workerID == id {
				l.expires = now.Add(-time.Second) // expire below, requeueing its cells
			}
		}
	}
	for _, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		if c.line.Requeue(l.fp) {
			c.met.requeues.Inc()
			if w, ok := c.workers[l.workerID]; ok {
				w.requeues++
			}
			c.log.Warn("fabric lease expired, cell requeued",
				"lease", l.id, "worker", l.workerID, "span", obs.CellSpan(l.fp))
		}
		c.retireLeaseLocked(l)
	}
}

// Status assembles the GET /v2/fabric view.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Enabled:        true,
		QueueDepth:     c.line.Waiting(),
		ActiveLeases:   len(c.leases),
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		LeasesTotal:    c.met.leases.Value(),
		RequeuesTotal:  c.met.requeues.Value(),
		CompletedTotal: c.met.completed.Value(),
		FailedTotal:    c.met.failed.Value(),
		StaleTotal:     c.met.stale.Value(),
	}
	now := time.Now()
	for _, w := range c.workers {
		ws := WorkerStatus{
			ID:             w.id,
			Name:           w.name,
			PID:            w.pid,
			Capacity:       w.capacity,
			ActiveLeases:   w.active,
			CellsDone:      w.done,
			CellsFailed:    w.failed,
			Requeues:       w.requeues,
			LastSeenMillis: now.Sub(w.lastSeen).Milliseconds(),
		}
		if lifetime := now.Sub(w.registered).Seconds(); lifetime > 0 {
			ws.CellsPerSec = float64(w.done) / lifetime
		}
		st.Workers = append(st.Workers, ws)
	}
	// Deterministic order for status pages and tests.
	slices.SortFunc(st.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.ID, b.ID) })
	return st
}

// WorkerCount counts registered workers (feeds the workers gauge).
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// ActiveLeases counts held leases (feeds the leases gauge).
func (c *Coordinator) ActiveLeases() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}
