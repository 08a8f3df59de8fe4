package exec

import (
	"context"
	"slices"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// The wait line: every leader cell waits here for one of the
// Options.Workers local slots. A free slot goes to the oldest cell in
// the line that may start, under one rule: a cell with no checkpoint
// group may always start, and a group's cell may start while the
// group's image is published or while none of the group's cells holds a
// slot (group.go). A cell that may not start keeps its place and holds
// up no cell behind it. dispatch applies the rule whenever it can admit
// more: when a cell joins the line, when a slot frees, and when a group
// publishes.

// waiter is one cell in the line: its checkpoint group (nil for none)
// and the grant dispatch closes when it hands the cell a slot.
type waiter struct {
	g     *group
	grant chan struct{}
}

// wait holds a leader cell (Run's copy, prepared by lead) in the line
// until dispatch hands it a slot, then runs it on that slot. A cell
// canceled while it waits leaves the line without starting.
func (e *Executor) wait(ctx context.Context, c *spec.Resolved, g *group, started func()) (*sim.Result, error) {
	w := &waiter{g: g, grant: make(chan struct{})}
	e.mu.Lock()
	e.line = append(e.line, w)
	e.dispatch()
	e.mu.Unlock()
	select {
	case <-w.grant:
	case <-ctx.Done():
	}
	if ctx.Err() != nil {
		e.leaveLine(w)
		return nil, ctx.Err()
	}
	defer e.freeSlot(g)
	if started != nil {
		started()
	}
	e.met.workersBusy.Inc()
	defer e.met.workersBusy.Dec()
	return e.run(ctx, c)
}

// dispatch hands free slots to the oldest cells in the line that may
// start. The caller holds e.mu.
func (e *Executor) dispatch() {
	for i := 0; i < len(e.line) && e.busy < e.workers; {
		w := e.line[i]
		if w.g != nil && !w.g.published && w.g.running > 0 {
			i++
			continue
		}
		e.busy++
		if w.g != nil {
			w.g.running++
		}
		close(w.grant)
		e.line = slices.Delete(e.line, i, i+1)
	}
}

// leaveLine takes a canceled cell out of the line, or gives up the
// slot granted to it meanwhile.
func (e *Executor) leaveLine(w *waiter) {
	e.mu.Lock()
	i := slices.Index(e.line, w)
	if i >= 0 {
		e.line = slices.Delete(e.line, i, i+1)
	}
	e.mu.Unlock()
	if i < 0 {
		e.freeSlot(w.g)
	}
}

// freeSlot gives up a slot of a cell of group g (nil for none) and
// hands it on.
func (e *Executor) freeSlot(g *group) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.busy--
	if g != nil {
		g.running--
	}
	e.dispatch()
}
