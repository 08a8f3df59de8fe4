package exec

import (
	"context"
	"errors"
	"fmt"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
)

// Relative-IPC baselines are the executor's job. A cell whose spec sets
// Baselines divides each thread's IPC by the IPC of its benchmark run
// solo under ICOUNT at the cell's own machine, seed and protocol
// (spec.SoloBaseline). Execute runs each distinct solo of a batch once,
// alongside the cells and through the same store, single-flight, line
// and warm gate; a baselines cell is terminal only when its solos are,
// and a failed or canceled solo fails or cancels just the cells that
// divide by it.

// errNotStored reports a solo baseline Lookup found no result for.
var errNotStored = errors.New("not stored")

// soloRun is one solo baseline of an Execute batch: it runs once, and
// every cell of the batch that divides by it waits for done.
type soloRun struct {
	cell *spec.Resolved
	done chan struct{}
	res  *sim.Result
	err  error
}

// soloCells resolves the solo baselines of a cell, keyed by benchmark;
// nil when the cell asks for no baselines or replays a trace.
func soloCells(c *spec.Resolved) (map[string]*spec.Resolved, error) {
	if !c.Spec.Baselines || c.Options.Trace != nil {
		return nil, nil
	}
	solos := make(map[string]*spec.Resolved)
	for _, b := range c.Options.Workload.Benchmarks {
		if solos[b] != nil {
			continue
		}
		soloSpec := spec.SoloBaseline(c.Spec, b)
		sc, err := soloSpec.Resolve(nil)
		if err != nil {
			return nil, fmt.Errorf("solo baseline for %s: %w", b, err)
		}
		solos[b] = sc
	}
	return solos, nil
}

// summarize computes a finished cell's relative-IPC summary, taking each
// thread's solo result from solo.
func summarize(res *sim.Result, solo func(bench string) (*sim.Result, error)) (*stats.Summary, error) {
	ipcs := make([]float64, len(res.Threads))
	for i, t := range res.Threads {
		sr, err := solo(t.Benchmark)
		if err == nil && len(sr.Threads) == 0 {
			err = errors.New("no thread in result")
		}
		if err != nil {
			return nil, fmt.Errorf("solo baseline for %s: %w", t.Benchmark, err)
		}
		ipcs[i] = sr.Threads[0].IPC
	}
	return stats.Summarize(res.IPCs(), ipcs)
}

// planSolos maps each baselines cell of a batch to a function computing
// its summary from its solo runs (nil for other cells), and returns the batch's distinct solo
// runs in first-use order. A cell whose solos do not resolve fails with
// that error once its own run finishes.
func planSolos(cells []*spec.Resolved) ([]func(*sim.Result) (*stats.Summary, error), []*soloRun) {
	plan := make([]func(*sim.Result) (*stats.Summary, error), len(cells))
	var runs []*soloRun
	byFp := map[string]*soloRun{}
	for i, c := range cells {
		solos, err := soloCells(c)
		switch {
		case err != nil:
			plan[i] = func(*sim.Result) (*stats.Summary, error) { return nil, err }
			continue
		case solos == nil:
			continue
		}
		byBench := make(map[string]*soloRun, len(solos))
		for _, b := range c.Options.Workload.Benchmarks {
			sc := solos[b]
			r := byFp[sc.Fingerprint]
			if r == nil {
				r = &soloRun{cell: sc, done: make(chan struct{})}
				byFp[sc.Fingerprint] = r
				runs = append(runs, r)
			}
			byBench[b] = r
		}
		plan[i] = func(res *sim.Result) (*stats.Summary, error) {
			return summarize(res, func(b string) (*sim.Result, error) {
				r := byBench[b]
				if r == nil {
					return nil, errors.New("no solo cell")
				}
				<-r.done
				return r.res, r.err
			})
		}
	}
	return plan, runs
}

// runSolo completes one solo baseline. It emits no event but counts as
// a terminal cell like any other.
func (e *Executor) runSolo(ctx context.Context, r *soloRun) {
	defer close(r.done)
	var cached bool
	r.res, cached, r.err = e.cell(ctx, r.cell, nil)
	e.met.cellTerminal(cellState(r.err, cached))
}

// Lookup reads every cell from the store and runs nothing. A slot is
// filled, Cached and with its Summary, only when the cell and every solo
// baseline it needs are stored; the other slots stay zero.
func (e *Executor) Lookup(cells []*spec.Resolved) []CellResult {
	out := make([]CellResult, len(cells))
	for i, c := range cells {
		res, ok := e.store.Get(c.Fingerprint)
		if !ok {
			continue
		}
		solos, err := soloCells(c)
		var summary *stats.Summary
		if err == nil && solos != nil {
			summary, err = summarize(res, func(b string) (*sim.Result, error) {
				if sc := solos[b]; sc != nil {
					if sr, ok := e.store.Get(sc.Fingerprint); ok {
						return sr, nil
					}
				}
				return nil, errNotStored
			})
		}
		if err != nil {
			continue
		}
		out[i] = CellResult{Index: i, Fingerprint: c.Fingerprint, Spec: c.Spec, Result: res, Cached: true, Summary: summary}
	}
	return out
}
