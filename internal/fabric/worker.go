package fabric

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// WorkerOptions configures a pull-based fabric worker (the client side
// of the lease protocol; `dwarnd -worker -coordinator=URL` wraps one).
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// Name labels the worker in status and logs ("" = host-pid).
	Name string
	// Executor runs the leased cells, the same way every frontend runs
	// cells (required, with at least one local slot): its local slots
	// are the worker's capacity, its store short-circuits leases it
	// already holds and keeps the results it computes (point every
	// worker and the coordinator at one shared DirStore and the fleet
	// shares one durable cache identity), and its checkpoint store lets
	// cells fork — typically a ckpt.Chain ending in the coordinator's
	// RemoteCkptStore.
	Executor *exec.Executor
	// LeaseWait bounds each lease call's long-poll (<=0 = default).
	LeaseWait time.Duration
	// AuthToken, when non-empty, is sent as a bearer credential on
	// every RPC — required when the coordinator runs with -auth-token.
	AuthToken string
	// Registry, when non-nil, receives the worker's RPC health metrics.
	Registry *obs.Registry
	// Logger receives worker lifecycle logs (nil = discard).
	Logger *obs.Logger
}

// Worker pulls leases from a coordinator, runs the cells on its
// executor, and pushes completions. Run blocks until its context is
// canceled; on shutdown in-flight cells are abandoned silently (no
// error completion is ever pushed for them), so the coordinator's
// lease TTL — not a dying worker's last gasp — decides when their
// cells are requeued.
type Worker struct {
	opts   WorkerOptions
	info   WorkerInfo // sent on every RPC
	log    *obs.Logger
	client *http.Client

	// ttl is the coordinator's lease TTL in nanoseconds, learned from
	// its lease responses (0 until the first one); it paces heartbeats.
	ttl atomic.Int64

	// heartbeats can be switched off by fault-injection tests to
	// simulate a partitioned worker that keeps computing.
	heartbeats atomic.Bool

	// rpcFailures counts failed coordinator RPCs over the worker's
	// lifetime; rpcStreak is the current consecutive-failure run (0 =
	// healthy), the fastest signal of a partitioned coordinator.
	rpcFailures atomic.Uint64
	rpcStreak   atomic.Int64

	active sync.Map // lease id -> *activeLease
}

// activeLease is one in-flight cell on this worker.
type activeLease struct {
	cancel context.CancelFunc
	// abandon marks a cell whose completion must not be pushed (the
	// coordinator canceled it, or the worker is shutting down).
	abandon atomic.Bool
}

// NewWorker builds a worker; call Run to start it.
func NewWorker(opts WorkerOptions) *Worker {
	if opts.Executor == nil || opts.Executor.Workers() == 0 {
		panic("fabric: a worker needs an executor with local slots")
	}
	if opts.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		opts.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if opts.LeaseWait <= 0 {
		opts.LeaseWait = DefaultLeaseWait
	}
	suffix := make([]byte, 8)
	_, _ = crand.Read(suffix) // never fails since Go 1.24
	w := &Worker{
		opts: opts,
		info: WorkerInfo{
			ID:       opts.Name + "-" + hex.EncodeToString(suffix),
			Name:     opts.Name,
			Capacity: opts.Executor.Workers(),
			PID:      os.Getpid(),
		},
		log: opts.Logger,
		// The timeout sits comfortably above the long-poll window.
		client: &http.Client{Timeout: opts.LeaseWait + 30*time.Second},
	}
	if w.log == nil {
		w.log = obs.Nop()
	}
	w.heartbeats.Store(true)
	if reg := opts.Registry; reg != nil {
		reg.CounterFunc("dwarn_fabric_worker_rpc_failures", "Failed coordinator RPCs (lease, heartbeat, complete).",
			func() float64 { return float64(w.rpcFailures.Load()) })
		reg.GaugeFunc("dwarn_fabric_worker_rpc_failure_streak", "Consecutive failed coordinator RPCs (0 = healthy).",
			func() float64 { return float64(w.rpcStreak.Load()) })
	}
	return w
}

// rpcTimeout bounds every non-long-polling coordinator RPC: without a
// per-call deadline a hung coordinator (accepted connection, no
// response) would wedge the heartbeat loop and expire every lease.
const rpcTimeout = 15 * time.Second

// jitter spreads a backoff over [d/2, 3d/2) so a fleet of workers
// restarted together does not hammer the coordinator in lockstep.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// SetHeartbeats enables or disables lease renewal. Fault-injection
// tests disable it to simulate a partition: the worker keeps computing
// while the coordinator expires its leases and requeues the cells.
func (w *Worker) SetHeartbeats(on bool) { w.heartbeats.Store(on) }

// Run pulls leases until ctx is canceled, then returns nil. RPC
// failures are retried with backoff rather than surfaced: the worker's
// id travels on every RPC, so a worker outliving a coordinator restart
// simply resumes pulling from the new one.
func (w *Worker) Run(ctx context.Context) error {
	if !validWorkerID(w.info.ID) {
		return fmt.Errorf("fabric: worker name %q does not make a valid worker id (at most 47 printable ASCII characters, no spaces)", w.opts.Name)
	}
	capacity := w.info.Capacity
	w.log.Info("fabric worker started",
		"coordinator", w.opts.Coordinator, "worker", w.info.ID, "capacity", capacity)
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go w.heartbeatLoop(hbCtx)

	slots := make(chan struct{}, capacity)
	for i := 0; i < capacity; i++ {
		slots <- struct{}{}
	}
	var wg sync.WaitGroup
	defer wg.Wait()

	backoff := 200 * time.Millisecond
	for {
		// Block for one free slot, then batch up to every other free
		// slot so a wide worker fills in one RPC.
		select {
		case <-slots:
		case <-ctx.Done():
			w.shutdown()
			return nil
		}
		n := 1
	batch:
		for n < capacity {
			select {
			case <-slots:
				n++
			default:
				break batch
			}
		}

		leases, err := w.lease(ctx, n)
		if err != nil {
			for i := 0; i < n; i++ {
				slots <- struct{}{}
			}
			if ctx.Err() != nil {
				w.shutdown()
				return nil
			}
			w.log.Warn("fabric lease call failed; retrying", "err", err)
			select {
			case <-time.After(jitter(backoff)):
			case <-ctx.Done():
				w.shutdown()
				return nil
			}
			if backoff < 5*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 200 * time.Millisecond
		for i := len(leases); i < n; i++ {
			slots <- struct{}{} // unused slots go back
		}
		for _, l := range leases {
			l := l
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { slots <- struct{}{} }()
				w.execute(ctx, l)
			}()
		}
	}
}

// shutdown flags every in-flight cell abandoned and cancels it: no
// completion is pushed, heartbeats stop with the Run context, and the
// coordinator requeues our cells when the leases expire.
func (w *Worker) shutdown() {
	w.active.Range(func(_, v any) bool {
		al := v.(*activeLease)
		al.abandon.Store(true)
		al.cancel()
		return true
	})
}

// lease pulls up to n cells, long-polling an empty line server-side.
func (w *Worker) lease(ctx context.Context, n int) ([]Lease, error) {
	var resp LeaseResponse
	err := w.rpc(ctx, "", "/v2/fabric/lease", LeaseRequest{
		Worker:     w.info,
		Max:        n,
		WaitMillis: w.opts.LeaseWait.Milliseconds(),
	}, &resp)
	if err != nil {
		return nil, err
	}
	w.ttl.Store(int64(time.Duration(resp.LeaseTTLMillis) * time.Millisecond))
	return resp.Leases, nil
}

// heartbeatLoop renews the worker and its active leases once a third
// of the lease TTL has passed since the last renewal, and stops and
// drops the cells the coordinator reports canceled. A lease the
// coordinator no longer recognises keeps computing: a late completion
// is still accepted if the cell remains unresolved.
func (w *Worker) heartbeatLoop(ctx context.Context) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		ttl := time.Duration(w.ttl.Load())
		if ttl == 0 || time.Since(last) < ttl/3 || !w.heartbeats.Load() {
			continue
		}
		last = time.Now()
		var ids []string
		w.active.Range(func(k, _ any) bool {
			ids = append(ids, k.(string))
			return true
		})
		var resp HeartbeatResponse
		err := w.rpc(ctx, "", "/v2/fabric/heartbeat", HeartbeatRequest{Worker: w.info, LeaseIDs: ids}, &resp)
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("fabric heartbeat failed", "err", err)
			}
			continue
		}
		for _, id := range resp.Canceled {
			if v, ok := w.active.Load(id); ok {
				al := v.(*activeLease)
				al.abandon.Store(true)
				al.cancel()
			}
		}
	}
}

// execute runs one leased cell end to end: re-resolve the canonical
// spec (verifying it lands on the leased fingerprint), run it on the
// executor, then push the completion under the lease's trace id.
func (w *Worker) execute(ctx context.Context, l Lease) {
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	al := &activeLease{cancel: cancel}
	w.active.Store(l.ID, al)
	defer w.active.Delete(l.ID)

	cellCtx = obs.WithLogger(obs.WithTrace(cellCtx, l.Trace), w.log)
	if w.log.Enabled(obs.LevelDebug) {
		w.log.Debug("fabric cell leased", "trace", l.Trace, "span", obs.CellSpan(l.Fingerprint), "lease", l.ID)
	}

	res, err := w.runLease(cellCtx, l)
	if al.abandon.Load() {
		return // canceled by the coordinator or our own shutdown: push nothing
	}
	if err != nil && cellCtx.Err() != nil {
		return // dying mid-cell: the lease TTL requeues it
	}
	req := CompleteRequest{Worker: w.info, LeaseID: l.ID, Fingerprint: l.Fingerprint, Result: res}
	if err != nil {
		req.Error = err.Error()
	}
	w.complete(ctx, req, l.Trace)
}

// runLease resolves one leased cell and runs it on the executor.
func (w *Worker) runLease(ctx context.Context, l Lease) (*sim.Result, error) {
	// The lease carries the cell's canonical, self-contained spec;
	// re-resolving it locally must land on the leased fingerprint, or
	// the result would be filed under an identity it does not have.
	// (Trace workloads never reach here — the executor never hands
	// them out — so no trace resolver is needed.) A lease is the
	// simulation alone: the coordinator's executor runs any solo
	// baselines as cells of their own, so Baselines is dropped.
	rs := l.Spec
	rs.Baselines = false
	res, err := rs.Resolve(nil)
	if err != nil {
		return nil, fmt.Errorf("fabric: leased spec does not resolve: %w", err)
	}
	if res.Fingerprint != l.Fingerprint {
		return nil, fmt.Errorf("fabric: fingerprint mismatch: leased %s, resolved %s (engine version skew?)",
			obs.CellSpan(l.Fingerprint), obs.CellSpan(res.Fingerprint))
	}
	r := w.opts.Executor.Execute(ctx, []*spec.Resolved{res}, nil)[0]
	return r.Result, r.Err
}

// complete pushes one completion. Late completions (after a lease
// expiry, a silence expiry or a coordinator restart) are still worth
// pushing: they are accepted if the cell is unresolved.
func (w *Worker) complete(ctx context.Context, req CompleteRequest, trace string) {
	var resp CompleteResponse
	err := w.rpc(ctx, trace, "/v2/fabric/complete", req, &resp)
	if err != nil {
		if ctx.Err() == nil {
			w.log.Warn("fabric complete push failed", "span", obs.CellSpan(req.Fingerprint), "err", err)
		}
		return
	}
	if resp.Stale {
		w.log.Info("fabric completion stale (cell already resolved)", "span", obs.CellSpan(req.Fingerprint))
	}
}

// rpc is one JSON POST to the coordinator, under its own deadline —
// rpcTimeout, widened by the long-poll window for the lease call.
// trace, when set, rides as X-Request-ID so coordinator-side access
// logs join the cell's trace. Failures (transport, HTTP, decode) feed
// the worker's RPC health metrics; any success resets the streak.
func (w *Worker) rpc(ctx context.Context, trace, path string, in, out any) error {
	err := w.doRPC(ctx, trace, path, in, out)
	if err != nil {
		w.rpcFailures.Add(1)
		w.rpcStreak.Add(1)
	} else {
		w.rpcStreak.Store(0)
	}
	return err
}

func (w *Worker) doRPC(ctx context.Context, trace, path string, in, out any) error {
	timeout := rpcTimeout
	if path == "/v2/fabric/lease" {
		timeout += w.opts.LeaseWait
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.opts.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if trace != "" {
		req.Header.Set("X-Request-ID", trace)
	}
	if w.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+w.opts.AuthToken)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(io.LimitReader(resp.Body, maxRPCBody)).Decode(out)
}
