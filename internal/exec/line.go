package exec

import (
	"context"
	"slices"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// The wait line: every leader cell that passed the warm gate waits here
// for one of the Options.Workers local slots. A cell that finds a slot
// idle takes it at once; otherwise it joins the back of the line, and a
// slot whose cell finished hands itself to the cell at the head, so
// cells start in the order they arrived.

// wait holds a leader cell (Run's copy, prepared by lead) until a local
// slot takes it, then runs it on that slot. A cell canceled while it
// waits leaves the line without starting.
func (e *Executor) wait(ctx context.Context, c *spec.Resolved, started func()) (*sim.Result, error) {
	e.mu.Lock()
	if e.busy < e.workers {
		e.busy++
		e.mu.Unlock()
	} else {
		grant := make(chan struct{})
		e.line = append(e.line, grant)
		e.mu.Unlock()
		select {
		case <-grant:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			e.leaveLine(grant)
			return nil, ctx.Err()
		}
	}
	defer e.freeSlot()
	if started != nil {
		started()
	}
	e.met.workersBusy.Inc()
	defer e.met.workersBusy.Dec()
	return e.run(ctx, c)
}

// leaveLine takes a canceled cell's grant out of the line, or passes on
// the slot granted to it meanwhile.
func (e *Executor) leaveLine(grant chan struct{}) {
	e.mu.Lock()
	i := slices.Index(e.line, grant)
	if i >= 0 {
		e.line = slices.Delete(e.line, i, i+1)
	}
	e.mu.Unlock()
	if i < 0 {
		e.freeSlot()
	}
}

// freeSlot hands a slot whose cell finished to the head of the line, or
// idles it.
func (e *Executor) freeSlot() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.line) == 0 {
		e.busy--
		return
	}
	close(e.line[0])
	e.line[0] = nil
	e.line = e.line[1:]
}
