// Package exec is the one sweep execution layer under every frontend:
// it takes resolved spec cells (a single run or a whole expanded grid),
// runs them from one wait line drained by a bounded number of local
// slots and by remote takers (the fabric), memoizes each cell
// through a content-addressed Store keyed by sim.Fingerprint, streams
// per-cell completion events, and assembles results deterministically
// in input order regardless of completion order.
//
// The CLI's -spec sweeps, the dwarnd service's sweep jobs, and the
// experiment runner all execute through the same Executor, so they
// share one set of semantics: identical cells (within a batch, across
// batches, or across concurrent sweeps on a shared executor) are
// simulated once; one failing cell is recorded in its slot and never
// aborts the rest; cancelling the context stops running cells at their
// next cooperative check and marks the remainder canceled; and a sweep
// re-executed over a warm Store — including a DirStore surviving a
// killed process — skips everything already stored. Relative-IPC
// baselines are its job too: a cell whose spec sets Baselines is
// terminal only once its solo-ICOUNT baselines are, and carries their
// Summary (see baselines.go).
package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
)

// RunFunc computes one resolved cell. The default runs the simulator
// (sim.RunContext); tests substitute failures and delays. The cell a
// local slot hands Run is the executor's own copy, with
// Options.Checkpoints already set to the gated checkpoint store (nil
// when checkpointing is off), so every Run forks the same way.
type RunFunc func(ctx context.Context, res *spec.Resolved) (*sim.Result, error)

// Options configures an Executor.
type Options struct {
	// Workers is the number of local slots: leader cells simulated in
	// this process at once (0 = GOMAXPROCS). Negative means none, so
	// every cell waits in the line for a remote taker (see Take) and a
	// trace-workload cell fails at once with ErrNoLocalSlots.
	Workers int
	// Store memoizes results across Execute calls (nil = fresh MemStore).
	Store Store
	// Run computes a cell (nil = sim.RunContext). Test seam.
	Run RunFunc
	// Registry receives the executor's metrics (nil = obs.Default):
	// store hit/miss/put and single-flight dedup counters, terminal
	// cells by state, per-policy cell wall-time histograms, and
	// local slot utilization. See DESIGN.md §Observability.
	Registry *obs.Registry
	// Logger receives per-cell debug lines (nil = discard). Each line
	// carries the request-scoped trace ID from the Execute context and
	// the cell's span (a fingerprint prefix), so one X-Request-ID can
	// be followed from the HTTP access log through the executor into
	// the simulator's own run logs.
	Logger *obs.Logger
	// Checkpoints, when set, enables the checkpoint/fork engine: cells
	// sharing a spec.CheckpointKey are grouped, the group's first cell
	// calibrates cold and publishes its program cores, and the rest
	// fork from them — one calibration per (workload, seed) group per
	// store lifetime, wherever the cells run. Run receives the gated
	// store in res.Options.Checkpoints.
	Checkpoints ckpt.Store
}

// Cell event states, in the order a cell can report them. Every cell
// emits exactly one terminal event (done, cached, failed, or canceled);
// cells that pay for a simulation emit started first.
const (
	CellStarted  = "started"
	CellDone     = "done"
	CellCached   = "cached"
	CellFailed   = "failed"
	CellCanceled = "canceled"
)

// Event is one per-cell progress notification. Index is the cell's
// position in the Execute input; Completed counts terminal cells so far
// (including this one, when terminal) out of Total. Result is set on
// done and cached events, and Summary on those of baselines cells, so
// progress consumers (the service's sweep status and SSE stream) need
// no store round trip.
type Event struct {
	Index       int
	Fingerprint string
	State       string
	Result      *sim.Result
	Summary     *stats.Summary
	Err         error
	Completed   int
	Total       int
}

// Terminal reports whether the event finishes its cell.
func (e Event) Terminal() bool { return e.State != CellStarted }

// CellResult is one assembled slot of an Execute call, in input order.
type CellResult struct {
	// Index is the cell's position in the input.
	Index int
	// Fingerprint is the cell's content-addressed identity.
	Fingerprint string
	// Spec is the cell's canonical spec.
	Spec spec.RunSpec
	// Result is the finished simulation; nil when Err is set.
	Result *sim.Result
	// Summary is the relative-IPC summary over the cell's solo
	// baselines; set only when its spec asks for baselines.
	Summary *stats.Summary
	// Cached reports that this cell did not pay for its simulation: the
	// result came from the Store or from a concurrent identical cell.
	Cached bool
	// Err is the cell's failure (or context error), recorded in place;
	// other cells run to completion regardless.
	Err error
}

// FirstError returns the first cell error in input order, or nil.
func FirstError(results []CellResult) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// flight is one in-progress simulation; duplicate cells and concurrent
// Execute calls with the same fingerprint wait on done and share the
// outcome.
type flight struct {
	done chan struct{}
	res  *sim.Result
	err  error
	job  *job // the leader's cell once it passed the warm gate; guarded by Executor.mu
}

// Executor runs cells from one wait line with single-flight
// memoization. One Executor may serve many concurrent Execute calls —
// the dwarnd service runs every sweep through one shared Executor so N
// concurrent sweeps compete for the same local slots and remote takers
// instead of multiplying them.
type Executor struct {
	workers int
	store   Store
	run     RunFunc
	met     *metrics
	log     *obs.Logger
	ckgate  *warmGate
	ckpts   ckpt.Store // gated; nil when checkpointing is off

	mu       sync.Mutex
	inflight map[string]*flight
	busy     int           // local slots holding a cell
	line     []*job        // FIFO of leader cells; entries no longer waiting are stale
	waiting  int           // cells in the line still waiting
	arrived  chan struct{} // closed and replaced when a takeable cell joins the line
}

// New builds an Executor.
func New(opts Options) *Executor {
	switch {
	case opts.Workers == 0:
		opts.Workers = runtime.GOMAXPROCS(0)
	case opts.Workers < 0:
		opts.Workers = 0
	}
	if opts.Store == nil {
		opts.Store = NewMemStore()
	}
	var ckgate *warmGate
	var ckpts ckpt.Store
	if opts.Checkpoints != nil {
		ckgate = newWarmGate()
		ckpts = gatedCkptStore{inner: opts.Checkpoints, gate: ckgate}
	}
	if opts.Run == nil {
		opts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return sim.RunContext(ctx, res.Options)
		}
	}
	met := newMetrics(opts.Registry, opts.Workers)
	if opts.Logger == nil {
		opts.Logger = obs.Nop()
	}
	return &Executor{
		workers: opts.Workers,
		log:     opts.Logger,
		ckgate:  ckgate,
		ckpts:   ckpts,
		// Every store access — the executor's own memoization and
		// callers going through Store(), like the service's submit-time
		// precheck — counts into the hit/miss/put series.
		store:    countingStore{inner: opts.Store, m: met},
		run:      opts.Run,
		met:      met,
		inflight: make(map[string]*flight),
		arrived:  make(chan struct{}),
	}
}

// Store returns the executor's result store.
func (e *Executor) Store() Store { return e.store }

// CheckpointStore returns the executor's gated checkpoint store (the
// one Run receives in res.Options.Checkpoints), for serving it to
// remote workers. Nil when checkpointing is off.
func (e *Executor) CheckpointStore() ckpt.Store { return e.ckpts }

// Workers returns the number of local slots.
func (e *Executor) Workers() int { return e.workers }

// Execute completes every cell and returns the assembled results in
// input order. It never fails as a whole: per-cell errors (including
// ctx cancellation, which stops running cells cooperatively and marks
// waiting ones canceled) land in their slots; use FirstError for
// callers that treat any failure as fatal. onEvent, when non-nil, is
// called serially (one goroutine's event at a time, never concurrently)
// with per-cell progress.
func (e *Executor) Execute(ctx context.Context, cells []*spec.Resolved, onEvent func(Event)) []CellResult {
	out := make([]CellResult, len(cells))
	batchStart := time.Now()

	var evMu sync.Mutex
	completed := 0
	emit := func(ev Event) {
		evMu.Lock()
		defer evMu.Unlock()
		if ev.Terminal() {
			completed++
			e.met.cellTerminal(ev.State)
		}
		ev.Completed = completed
		ev.Total = len(cells)
		if onEvent != nil {
			onEvent(ev)
		}
	}

	var wg sync.WaitGroup
	plan, solos := planSolos(cells)
	for _, r := range solos {
		wg.Add(1)
		go func(r *soloRun) {
			defer wg.Done()
			e.runSolo(ctx, r)
		}(r)
	}
	for i, c := range cells {
		wg.Add(1)
		go func(i int, c *spec.Resolved) {
			defer wg.Done()
			fp := c.Fingerprint
			started := func() {
				emit(Event{Index: i, Fingerprint: fp, State: CellStarted})
			}
			res, cached, err := e.cell(ctx, c, started)
			var summary *stats.Summary
			if err == nil && plan[i] != nil {
				if summary, err = plan[i](res); err != nil {
					res = nil
				}
			}
			out[i] = CellResult{
				Index:       i,
				Fingerprint: fp,
				Spec:        c.Spec,
				Result:      res,
				Summary:     summary,
				Cached:      cached,
				Err:         err,
			}
			emit(Event{Index: i, Fingerprint: fp, State: cellState(err, cached), Result: res, Summary: summary, Err: err})
		}(i, c)
	}
	wg.Wait()
	e.met.batchRate(len(cells)+len(solos), time.Since(batchStart))
	return out
}

// cellState is a finished cell's terminal state. Canceled means the
// cell's error IS a context error; a cell that failed with a genuine
// simulation error reports failed even when the sweep was canceled
// moments later — masking a real failure as "canceled" would hide it
// from the caller.
func cellState(err error, cached bool) string {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return CellCanceled
	case err != nil:
		return CellFailed
	case cached:
		return CellCached
	}
	return CellDone
}

// cell computes one fingerprint with store memoization and
// single-flight dedup. cached reports that this caller did not pay for
// the simulation. If a leader fails, waiters whose own context is still
// live retry as leader rather than inheriting the failure, so one
// cancelled sweep cannot poison an identical healthy one.
func (e *Executor) cell(ctx context.Context, c *spec.Resolved, started func()) (res *sim.Result, cached bool, err error) {
	fp := c.Fingerprint
	for {
		// Join or claim the flight before consulting the store: a leader
		// puts before it settles, so a caller that finds no flight and
		// then misses the store is the only one that will simulate.
		// Looking up the store first would let a duplicate miss it just
		// before the leader's put, find the flight already settled, and
		// simulate again.
		e.mu.Lock()
		if f, ok := e.inflight[fp]; ok {
			e.mu.Unlock()
			e.met.dedup.Inc()
			select {
			case <-f.done:
				if f.err == nil {
					return f.res, true, nil
				}
				continue // leader failed; retry as leader
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		}
		f := &flight{done: make(chan struct{})}
		e.inflight[fp] = f
		e.mu.Unlock()

		if r, ok := e.store.Get(fp); ok {
			f.res = r
			e.settle(fp, f)
			return r, true, nil
		}

		// Leader: the cell waits in the line for a local slot or a
		// remote taker.
		f.res, f.err = e.lead(ctx, f, c, started)
		if f.err == nil {
			e.store.Put(fp, f.res)
		}
		e.settle(fp, f)
		return f.res, false, f.err
	}
}

// lead executes one leader cell. The cell's span is obs.CellSpan of
// its fingerprint. The span rides the context into the run, so
// sim's own "sim run" line carries the same trace/span pair as the
// worker's lines here — local slot and remote taker alike.
func (e *Executor) lead(ctx context.Context, f *flight, c *spec.Resolved, started func()) (*sim.Result, error) {
	if e.workers == 0 && c.Options.Trace != nil {
		return nil, ErrNoLocalSlots
	}
	fp := c.Fingerprint
	runCtx := obs.WithSpan(ctx, obs.CellSpan(fp))
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Debug("cell start",
			"trace", obs.TraceID(ctx), "span", obs.SpanID(runCtx),
			"policy", c.Spec.Policy.ID(), "workload", c.Spec.Workload.ID())
	}

	runStart := time.Now()
	// Checkpoint groups calibrate once: the group's first cell leads
	// while siblings hold here (before joining the line, so a wide group
	// never starves unrelated cells), then fork the instant the leader
	// publishes its program cores — wherever the leader runs.
	if e.ckgate != nil && c.CheckpointKey != "" {
		leave, gerr := e.ckgate.enter(ctx, c.CheckpointKey)
		if gerr != nil {
			return nil, gerr
		}
		defer leave()
	}
	res, err := e.wait(runCtx, f, c, started)
	dur := time.Since(runStart)
	e.met.cellSeconds(c.Spec.Policy.Name).Observe(dur.Seconds())
	if e.log.Enabled(obs.LevelDebug) {
		e.log.Debug("cell done",
			"trace", obs.TraceID(ctx), "span", obs.SpanID(runCtx),
			"policy", c.Spec.Policy.ID(), "workload", c.Spec.Workload.ID(),
			"dur", dur.Round(time.Microsecond), "err", err)
	}
	return res, err
}

// settle publishes a flight's outcome and retires it.
func (e *Executor) settle(fp string, f *flight) {
	e.mu.Lock()
	delete(e.inflight, fp)
	e.mu.Unlock()
	close(f.done)
}
