package main

import (
	"context"
	"fmt"
	"time"

	"dwarn"
	"dwarn/internal/ckpt"
	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/spec"
)

// The four workloads. Each stresses different layers, and for each
// layer at least one workload bypasses it, so a change to that layer
// predicts "no change" there.
var workloads = []*workload{
	{
		name:      "engine",
		why:       "dwarn.Run on the paper protocol: the cycle engine alone, with exec, ckpt and the service bypassed",
		clients:   1,
		ops:       108, // 6 paper policies x {2-MIX, 4-MIX, 8-MEM} x 6 seeds
		prefixOps: 18,
		newEnv: func(h *harness, tr *tracer, dir string) (env, error) {
			return &engineEnv{h: h, tr: tr}, nil
		},
	},
	{
		name:      "grid",
		why:       "18-cell short sweeps on a fresh executor: generator build, checkpoint fork and executor fan-out become a large share",
		clients:   1,
		ops:       160,
		prefixOps: 4,
		verify:    true,
		newEnv: func(h *harness, tr *tracer, dir string) (env, error) {
			return &gridEnv{h: h, tr: tr}, nil
		},
	},
	{
		name:      "service-runs",
		why:       "POST /v2/runs on an in-process dwarnd, 2 clients: 3 of 4 ops hit the result cache, every 4th is a cold durable run",
		clients:   2,
		ops:       6000,
		prefixOps: 40,
		verify:    true,
		newEnv: func(h *harness, tr *tracer, dir string) (env, error) {
			return newServiceEnv(h, tr, dir, false)
		},
	},
	{
		name:      "service-sweeps",
		why:       "POST /v2/sweeps read to the SSE end frame, 2 clients: journal fsync, store put and checkpoint fork per cell",
		clients:   2,
		ops:       480,
		prefixOps: 8,
		verify:    true,
		newEnv: func(h *harness, tr *tracer, dir string) (env, error) {
			return newServiceEnv(h, tr, dir, true)
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

var paperPolicies = dwarn.PaperPolicies()

// engineWorkloads span the thread counts and memory behaviour the paper
// evaluates; shortWorkloads keep the short-protocol cells cheap.
var (
	engineWorkloads = []string{"2-MIX", "4-MIX", "8-MEM"}
	shortWorkloads  = []string{"2-MIX", "4-MIX", "2-MEM"}
)

// Short protocol of the grid and service workloads: long enough that
// every event kind occurs, short enough that per-cell overheads show.
const (
	shortWarmup  = 2000
	shortMeasure = 6000
)

// resolve compiles a spec, timing the call.
func resolve(ctx context.Context, tr *tracer, rs spec.RunSpec) (*spec.Resolved, error) {
	t0 := time.Now()
	res, err := rs.Resolve(nil)
	tr.add(spanFrom(ctx), "spec.resolve", t0, time.Now())
	return res, err
}

func group(workload string, seed uint64) string { return fmt.Sprintf("%s/%d", workload, seed) }

// engineEnv runs one dwarn.Run per op, checkpoints off. Every 18 ops
// run the six paper policies on each engineWorkloads entry at one
// fresh seed. The workload changes from op to op, so a run cut short
// by time still holds each workload's ops in equal shares.
type engineEnv struct {
	h  *harness
	tr *tracer
}

func (e *engineEnv) op(ctx context.Context, o opID) (string, error) {
	pol, wl := paperPolicies[0], engineWorkloads[0]
	var seed uint64
	if o.warm() {
		seed = warmSeed("engine", o.client, -o.k)
	} else {
		n := len(engineWorkloads)
		wl = engineWorkloads[o.k%n]
		pol = paperPolicies[(o.k/n)%len(paperPolicies)]
		seed = e.h.seedFor("engine", o.client, o.k/(n*len(paperPolicies)))
	}
	res, err := resolve(ctx, e.tr, spec.RunSpec{
		Policy: spec.Policy{Name: pol}, Workload: spec.Workload{Name: wl}, Seed: seed,
	})
	if err != nil {
		return "run", err
	}
	opts := res.Options
	if e.h.spin > 0 {
		inner, err := core.NewPolicyParams(opts.Policy, opts.PolicyParams)
		if err != nil {
			return "run", err
		}
		opts.PolicyInstance = &slowPolicy{FetchPolicy: inner, spin: e.h.spin}
	}
	t0 := time.Now()
	r, err := dwarn.Run(opts)
	e.tr.add(spanFrom(ctx), "dwarn.Run", t0, time.Now())
	if err != nil {
		return "run", err
	}
	if err := checkShape(r, opts); err != nil {
		return "run", err
	}
	e.h.record(o, resultRef{
		label: fmt.Sprintf("engine %s/%s/%d", pol, wl, seed), opts: opts, policy: pol, group: group(wl, seed),
		get: func() (*dwarn.Result, error) { return r, nil },
	})
	return "run", nil
}

func (e *engineEnv) registry() *obs.Registry { return nil }
func (e *engineEnv) close() error            { return nil }

// gridEnv runs one 18-cell sweep per op (the six paper policies on
// shortWorkloads at one fresh seed) through a fresh executor configured
// the way `smtsim -spec` builds one.
type gridEnv struct {
	h  *harness
	tr *tracer
}

func (e *gridEnv) op(ctx context.Context, o opID) (string, error) {
	var seed uint64
	if o.warm() {
		seed = warmSeed("grid", o.client, -o.k)
	} else {
		seed = e.h.seedFor("grid", o.client, o.k)
	}
	ss := spec.SweepSpec{Seeds: []uint64{seed}, WarmupCycles: shortWarmup, MeasureCycles: shortMeasure}
	for _, w := range shortWorkloads {
		ss.Workloads = append(ss.Workloads, spec.Workload{Name: w})
	}
	runs, err := ss.Expand(0)
	if err != nil {
		return "grid", err
	}
	cells := make([]*spec.Resolved, len(runs))
	for i := range runs {
		if cells[i], err = resolve(ctx, e.tr, runs[i]); err != nil {
			return "grid", err
		}
	}

	var store exec.Store = exec.NewMemStore()
	var ckpts ckpt.Store = ckpt.Chain{ckpt.NewMemStore(0)}
	opts := exec.Options{Workers: gomaxprocs()}
	var ex *exec.Executor
	var onEvent func(exec.Event)
	execRef := e.tr.reserve("", spanFrom(ctx))
	t0 := time.Now()
	if e.tr != nil {
		store = timedResults{inner: store, tr: e.tr}
		ckpts = timedCkpts{inner: ckpts, tr: e.tr}
		opts.Run = timedRun(e.tr, &ex)
		onEvent = cellSpans(e.tr, execRef, t0, len(cells))
	}
	opts.Store, opts.Checkpoints = store, ckpts
	ex = exec.New(opts)
	out := ex.Execute(withSpan(ctx, execRef), cells, onEvent)
	e.tr.finish(execRef, "exec.Execute", t0, time.Now())

	refs := make([]resultRef, 0, len(out))
	for i, c := range out {
		if c.Err != nil {
			return "grid", fmt.Errorf("cell %d: %w", i, c.Err)
		}
		opts := cells[i].Options
		if err := checkShape(c.Result, opts); err != nil {
			return "grid", fmt.Errorf("cell %d: %w", i, err)
		}
		r := c.Result
		refs = append(refs, resultRef{
			label:  fmt.Sprintf("grid %s/%s/%d", opts.Policy, opts.Workload.Name, seed),
			opts:   opts,
			policy: opts.Policy,
			group:  group(opts.Workload.Name, seed),
			get:    func() (*dwarn.Result, error) { return r, nil },
		})
	}
	e.h.record(o, refs...)
	return "grid", nil
}

func (e *gridEnv) registry() *obs.Registry { return nil }
func (e *gridEnv) close() error            { return nil }

// cellSpans turns an Execute call's events into per-cell spans: the
// wait from the call to the cell's start, and the run from start to
// its terminal event. Execute delivers events serially.
func cellSpans(tr *tracer, parent spanRef, t0 time.Time, n int) func(exec.Event) {
	started := make([]time.Time, n)
	return func(ev exec.Event) {
		now := time.Now()
		if ev.State == exec.CellStarted {
			started[ev.Index] = now
			tr.add(parent, "cell.queue", t0, now)
			return
		}
		if s := started[ev.Index]; !s.IsZero() {
			tr.add(parent, "cell.run", s, now)
		} else {
			tr.add(parent, "cell.cached", t0, now)
		}
	}
}
