// Package exp regenerates every table and figure of the paper's
// evaluation: Table 2(a) (isolated cache behaviour), Figure 1 (absolute
// throughput and DWarn's improvement), Figure 2 (flushed instructions
// under FLUSH), Figure 3 (Hmean improvement), Table 4 (per-thread
// relative IPCs on 4-MIX), Figures 4 and 5 (the smaller and deeper
// machines), plus the ablation studies DESIGN.md calls out.
//
// Every experiment is a spec grid: the builders declare their runs as
// spec.SweepSpec axes (machines × policies with parameter grids ×
// workloads × seeds), expand them deterministically, and hand the cells
// to the shared execution layer (internal/exec). Simulations are
// memoised by spec fingerprint in the executor's Store — the same
// content-addressed identity the dwarnd service cache uses — and
// independent cells fan out over the executor's bounded worker pool, so
// experiments that share grid cells (Figures 1 and 3, Table 4) pay for
// each simulation once.
package exp

import (
	"context"
	"fmt"
	"sync"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
)

// Config controls the measurement protocol for all experiments.
type Config struct {
	// Seed drives all synthetic randomness (0 = sim.DefaultSeed).
	Seed uint64
	// WarmupCycles and MeasureCycles per simulation (0 = package
	// defaults: 60k warmup, 150k measured).
	WarmupCycles  int64
	MeasureCycles int64
	// Parallelism bounds concurrent simulations (0 = GOMAXPROCS).
	Parallelism int
	// Checkpoints, when non-nil, enables the checkpoint/fork engine:
	// grid cells sharing a (workload, seed) group calibrate once and
	// fork the group's program cores from this store.
	Checkpoints ckpt.Store
}

// Default run lengths for experiments: long enough for stable rankings,
// short enough that the full paper regeneration finishes in minutes.
const (
	DefaultWarmup  = 60_000
	DefaultMeasure = 150_000
)

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = sim.DefaultSeed
	}
	if c.WarmupCycles == 0 {
		c.WarmupCycles = DefaultWarmup
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = DefaultMeasure
	}
	return c
}

// Runner executes experiments through the shared execution layer. The
// executor's Store memoises by spec fingerprint; the runner adds a
// (machine, policy-id, workload, seed) index on top for the lookups the
// experiment tables perform, and keeps the relative-IPC summaries the
// executor returned for baselines cells.
type Runner struct {
	cfg    Config
	traces spec.TraceResolver
	exec   *exec.Executor

	mu        sync.Mutex
	index     map[runKey]string         // identity quad → fingerprint
	summaries map[string]*stats.Summary // fingerprint → relative-IPC summary
}

type runKey struct {
	machine  string
	policy   string // canonical compact id: "stall", "dwarn(warn=2)"
	workload string
	seed     uint64
}

// NewRunner builds a Runner with the given protocol. Spec files that
// reference traces resolve them as filesystem paths.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{
		cfg:       cfg,
		traces:    spec.FileTraces{},
		exec:      exec.New(exec.Options{Workers: cfg.Parallelism, Checkpoints: cfg.Checkpoints}),
		index:     make(map[runKey]string),
		summaries: make(map[string]*stats.Summary),
	}
}

// grid expands a sweep under the runner's protocol: the experiment
// declares the axes, the runner supplies seed and run lengths.
func (r *Runner) grid(ss spec.SweepSpec) ([]spec.RunSpec, error) {
	ss.WarmupCycles = r.cfg.WarmupCycles
	ss.MeasureCycles = r.cfg.MeasureCycles
	if len(ss.Seeds) == 0 {
		ss.Seeds = []uint64{r.cfg.Seed}
	}
	return ss.Expand(0)
}

// gridCell is one resolved grid point.
type gridCell struct {
	res *spec.Resolved
	key runKey
}

// resolveAll compiles every spec before anything runs, so a bad cell is
// reported before any simulation starts.
func (r *Runner) resolveAll(specs []spec.RunSpec) ([]gridCell, error) {
	cells := make([]gridCell, len(specs))
	for i, rs := range specs {
		res, err := rs.Resolve(r.traces)
		if err != nil {
			return nil, err
		}
		cells[i] = gridCell{res: res, key: cellKey(res)}
	}
	return cells, nil
}

// cellKey derives the index quad from a resolved run.
func cellKey(res *spec.Resolved) runKey {
	wl := res.Options.Workload.Name
	if res.Options.Trace != nil {
		wl = res.Spec.Workload.ID()
	}
	return runKey{
		machine:  res.Spec.Machine.Name,
		policy:   res.Spec.Policy.ID(),
		workload: wl,
		seed:     res.Spec.Seed,
	}
}

// runAll completes all cells through the executor (memoised, fanned out
// over its pool), failing on the first cell error in grid order — the
// table builders need every cell to render anything.
func (r *Runner) runAll(specs []spec.RunSpec) error {
	cells, err := r.resolveAll(specs)
	if err != nil {
		return err
	}
	_, err = r.runResolved(cells)
	return err
}

// runResolved executes resolved cells and indexes their identities. The
// returned slice is in input order; its per-cell errors are also folded
// into the returned error (first in grid order) for callers that need
// every cell.
func (r *Runner) runResolved(cells []gridCell) ([]exec.CellResult, error) {
	resolved := make([]*spec.Resolved, len(cells))
	r.mu.Lock()
	for i, c := range cells {
		resolved[i] = c.res
		r.index[c.key] = c.res.Fingerprint
	}
	r.mu.Unlock()
	results := r.exec.Execute(context.Background(), resolved, nil)
	r.mu.Lock()
	for _, cr := range results {
		if cr.Summary != nil {
			r.summaries[cr.Fingerprint] = cr.Summary
		}
	}
	r.mu.Unlock()
	return results, exec.FirstError(results)
}

// fingerprint returns the indexed fingerprint of a cell under the
// runner's own seed.
func (r *Runner) fingerprint(machine, policy, wl string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.index[runKey{machine: machine, policy: policy, workload: wl, seed: r.cfg.Seed}]
}

// get returns a memoised result under the runner's own seed; runAll
// must have succeeded for its cell.
func (r *Runner) get(machine, policy, wl string) *sim.Result {
	res, _ := r.exec.Store().Get(r.fingerprint(machine, policy, wl))
	return res
}

// summary returns a cell's relative-IPC summary under the runner's own
// seed; runAll must have succeeded for its cell with baselines set.
func (r *Runner) summary(machine, policy, wl string) *stats.Summary {
	fp := r.fingerprint(machine, policy, wl)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.summaries[fp]
}

// RunSpecs executes an arbitrary spec grid (the -spec path of
// cmd/experiments) and renders one generic table: a row per cell with
// its resolved identity, throughput, and fingerprint. Unlike the named
// experiments, a failing cell does not abort the grid: its row reports
// the error and every other cell still renders. Cells with baselines
// set additionally report Hmean and weighted speedup over solo-ICOUNT
// baselines run at the cell's own machine, seed, and protocol (memoised
// like everything else).
func (r *Runner) RunSpecs(cells []spec.RunSpec) (*Table, error) {
	resolved, err := r.resolveAll(cells)
	if err != nil {
		return nil, err
	}
	results, _ := r.runResolved(resolved) // per-cell errors render as rows

	hasBaselines := false
	for _, cr := range results {
		if cr.Summary != nil {
			hasBaselines = true
			break
		}
	}
	hasErrors := exec.FirstError(results) != nil

	t := &Table{
		ID:     "spec-grid",
		Title:  "spec grid results",
		Header: []string{"machine", "policy", "workload", "seed", "throughput", "fingerprint"},
	}
	if hasBaselines {
		t.Header = append(t.Header, "hmean", "wspeedup")
	}
	if hasErrors {
		t.Header = append(t.Header, "error")
	}
	for i, c := range resolved {
		cr := results[i]
		tp := "-"
		if cr.Result != nil {
			tp = cell(cr.Result.Throughput)
		}
		row := []string{
			c.key.machine, c.key.policy, c.key.workload,
			fmt.Sprintf("%d", c.key.seed),
			tp,
			c.res.Fingerprint[:12],
		}
		if hasBaselines {
			hm, ws := "-", "-"
			if s := cr.Summary; s != nil {
				hm, ws = cell(s.Hmean), cell(s.WeightedSpeedup)
			}
			row = append(row, hm, ws)
		}
		if hasErrors {
			e := ""
			if cr.Err != nil {
				e = cr.Err.Error()
			}
			row = append(row, e)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
