package exec

import (
	"context"
	"errors"
	"slices"
	"sync"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// The wait line: every leader cell that passed the warm gate waits here
// until either a local slot (Options.Workers of them) or a remote taker
// (internal/fabric's coordinator, through Take) picks it up. There is
// one line and one in-flight table; remote takers match cells by
// fingerprint through the executor's single-flight map, so the first
// resolution of a cell wins wherever it ran.

// ErrNoLocalSlots fails a trace-workload cell on an executor without
// local slots: its payload lives only in this process, so no remote
// taker may run it.
var ErrNoLocalSlots = errors.New("exec: cell needs a local slot (trace workload) but the executor has none")

// jobState is where a leader cell is between the gate and its
// resolution.
type jobState uint8

const (
	jobWaiting jobState = iota // in the line
	jobLocal                   // holds a local slot
	jobTaken                   // handed to a remote taker
	jobDone                    // resolved; the first resolution won
)

// job is one leader cell in the line. cell, ctx and cancel are
// immutable; started is guarded by startMu, the rest by Executor.mu.
type job struct {
	cell   *spec.Resolved
	ctx    context.Context // the leader's run context: trace, span, cancellation
	cancel context.CancelFunc

	startMu sync.Mutex
	started func() // nil once fired, or once the leader returned

	state  jobState
	slot   bool          // granted a local slot (still held until the leader frees it)
	remote bool          // handed to a remote taker, its tape hold passed back (tapes.go)
	grant  chan struct{} // closed when a local slot takes the cell
	done   chan struct{} // closed on the first resolution
	res    *sim.Result
	err    error
}

// start fires the cell's started event unless it fired already or the
// leader has returned, so the event never follows the terminal one.
func (j *job) start() {
	j.startMu.Lock()
	defer j.startMu.Unlock()
	if j.started != nil {
		j.started()
		j.started = nil
	}
}

// Taken is one cell handed to a remote taker.
type Taken struct {
	Cell *spec.Resolved
	// Trace is the submitting request's trace ID.
	Trace string
}

// wait puts a leader cell in the line and returns its first resolution:
// the run of the local slot that takes it, or a remote taker's Resolve.
func (e *Executor) wait(ctx context.Context, f *flight, c *spec.Resolved, started func()) (*sim.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &job{
		cell: c, ctx: ctx, cancel: cancel, started: started,
		grant: make(chan struct{}), done: make(chan struct{}),
	}
	defer func() {
		j.startMu.Lock()
		j.started = nil
		j.startMu.Unlock()
	}()
	e.mu.Lock()
	f.job = j
	e.enqueueLocked(j)
	e.mu.Unlock()

	select {
	case <-j.grant:
	case <-j.done:
	case <-ctx.Done():
	}
	e.mu.Lock()
	run := j.state == jobLocal && ctx.Err() == nil
	if !run {
		// Resolved by a taker, or canceled: a slot granted meanwhile
		// passes straight on.
		if j.slot {
			e.freeSlotLocked()
		}
		e.resolveLocked(j, nil, ctx.Err())
	}
	e.mu.Unlock()
	if run {
		j.start()
		cell := *c // Run's copy forks from the gated store and reads the group's tapes
		cell.Options.Checkpoints = e.ckpts
		cell.Options.Tapes = e.groupTapes(c.CheckpointKey)
		e.met.workersBusy.Inc()
		res, err := e.run(ctx, &cell)
		e.met.workersBusy.Dec()
		e.mu.Lock()
		e.resolveLocked(j, res, err) // a no-op if a remote taker won
		e.freeSlotLocked()
		e.mu.Unlock()
	}
	return j.res, j.err
}

// enqueueLocked gives a cell an idle local slot, or puts it at the back
// of the line. Every cell in the line may run locally, so an idle slot
// means an empty line and FIFO order holds.
func (e *Executor) enqueueLocked(j *job) {
	if e.busy < e.workers {
		e.busy++
		j.state, j.slot = jobLocal, true
		close(j.grant)
		return
	}
	j.state = jobWaiting
	e.line = append(e.line, j)
	e.waiting++
	if j.cell.Options.Trace == nil {
		close(e.arrived)
		e.arrived = make(chan struct{})
	}
}

// freeSlotLocked hands a slot whose cell finished to the oldest waiting
// cell, or idles it.
func (e *Executor) freeSlotLocked() {
	if j := e.popLocked(true); j != nil {
		j.state, j.slot = jobLocal, true
		close(j.grant)
		return
	}
	e.busy--
}

// popLocked removes and returns the oldest waiting cell a taker may
// run — remote takers skip trace cells — or nil. Stale entries, cells
// resolved or canceled while waiting, are dropped on the way.
func (e *Executor) popLocked(local bool) *job {
	for i := 0; i < len(e.line); {
		j := e.line[i]
		if j.state == jobWaiting && !local && j.cell.Options.Trace != nil {
			i++
			continue
		}
		if i == 0 {
			e.line[0] = nil
			e.line = e.line[1:]
		} else {
			e.line = slices.Delete(e.line, i, i+1)
		}
		if j.state == jobWaiting {
			e.waiting--
			return j
		}
	}
	return nil
}

// resolveLocked settles a cell unless it already is; it reports whether
// this resolution won. A local run still in progress is canceled.
func (e *Executor) resolveLocked(j *job, res *sim.Result, err error) bool {
	if j.state == jobDone {
		return false
	}
	if j.state == jobWaiting {
		e.waiting--
	}
	j.state, j.res, j.err = jobDone, res, err
	close(j.done)
	j.cancel()
	return true
}

// jobLocked returns the line cell in flight under fp, or nil.
func (e *Executor) jobLocked(fp string) *job {
	if f, ok := e.inflight[fp]; ok {
		return f.job
	}
	return nil
}

// Take hands up to n waiting cells (at least one) to a remote taker,
// oldest first, long-polling an empty line until ctx is done. Each
// taken cell fires its started event. Trace-workload cells are never
// taken: their payload lives only in this process.
func (e *Executor) Take(ctx context.Context, n int) ([]Taken, error) {
	for {
		var js []*job
		e.mu.Lock()
		for len(js) < max(n, 1) {
			j := e.popLocked(false)
			if j == nil {
				break
			}
			j.state = jobTaken
			e.passTapesLocked(j)
			js = append(js, j)
		}
		arrived := e.arrived
		e.mu.Unlock()
		if len(js) > 0 {
			out := make([]Taken, len(js))
			for i, j := range js {
				j.start()
				out[i] = Taken{Cell: j.cell, Trace: obs.TraceID(j.ctx)}
			}
			return out, nil
		}
		select {
		case <-arrived:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// Resolve settles the cell in flight under fp with a remote taker's
// outcome. The first resolution wins: Resolve reports false (stale)
// when no such cell is in the line or it is already resolved.
func (e *Executor) Resolve(fp string, res *sim.Result, err error) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobLocked(fp)
	return j != nil && e.resolveLocked(j, res, err)
}

// Requeue puts a taken cell back in the line (its taker went silent).
// It reports false when the cell under fp is not currently taken.
func (e *Executor) Requeue(fp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobLocked(fp)
	if j == nil || j.state != jobTaken {
		return false
	}
	e.reclaimTapesLocked(j)
	e.enqueueLocked(j)
	return true
}

// Wanted reports whether the cell under fp is still unresolved: a
// taker's cue to keep computing it.
func (e *Executor) Wanted(fp string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobLocked(fp)
	return j != nil && j.state != jobDone
}

// Waiting counts the cells waiting in the line.
func (e *Executor) Waiting() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.waiting
}
