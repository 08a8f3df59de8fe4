// Package exp regenerates every table and figure of the paper's
// evaluation: Table 2(a) (isolated cache behaviour), Figure 1 (absolute
// throughput and DWarn's improvement), Figure 2 (flushed instructions
// under FLUSH), Figure 3 (Hmean improvement), Table 4 (per-thread
// relative IPCs on 4-MIX), Figures 4 and 5 (the smaller and deeper
// machines), plus the ablation studies DESIGN.md calls out.
//
// Every experiment is a spec grid: the builders declare their runs as
// spec.SweepSpec axes (machines × policies with parameter grids ×
// workloads × seeds), run them through the shared execution layer
// (internal/exec), and read the cells back from the grid's own results,
// looked up by machine, policy id, workload id and seed. Simulations
// are memoised by spec fingerprint in the executor's Store — the same
// content-addressed identity the dwarnd service cache uses — and
// independent cells fan out over the executor's bounded worker pool, so
// experiments that share grid cells (Figures 1 and 3, Table 4) pay for
// each simulation once. Arbitrary spec files run through `smtsim -spec`.
package exp

import (
	"context"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
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

// Runner executes experiments through the shared execution layer. It
// keeps no results of its own: the executor's Store memoises cells
// across grids, and each grid's results come back to the builder that
// ran it.
type Runner struct {
	cfg  Config
	exec *exec.Executor
}

// NewRunner builds a Runner with the given protocol.
func NewRunner(cfg Config) *Runner {
	cfg = cfg.withDefaults()
	return &Runner{
		cfg:  cfg,
		exec: exec.New(exec.Options{Workers: cfg.Parallelism, Checkpoints: cfg.Checkpoints}),
	}
}

// cellKey is a grid cell's identity: machine name, canonical policy id
// ("stall", "dwarn(warn=2)"), workload id ("4-MIX", "solo-mcf") and
// seed.
type cellKey struct {
	machine, policy, workload string
	seed                      uint64
}

// grid is one run grid's results, indexed by cell identity.
type grid map[cellKey]*exec.CellResult

// at returns the grid's cell for one identity, or nil if the grid did
// not run it.
func (g grid) at(machine, policy, wl string, seed uint64) *exec.CellResult {
	return g[cellKey{machine, policy, wl, seed}]
}

// run expands a sweep under the runner's protocol — the experiment
// declares the axes, the runner supplies run lengths and, unless the
// sweep names its own, the seed — and completes every cell through the
// executor (memoised, fanned out over its pool). It fails on the first
// cell error in grid order: the table builders need every cell to
// render anything. Every spec is compiled before anything runs, so a
// bad cell is reported before any simulation starts.
func (r *Runner) run(ss spec.SweepSpec) (grid, error) {
	ss.WarmupCycles = r.cfg.WarmupCycles
	ss.MeasureCycles = r.cfg.MeasureCycles
	if len(ss.Seeds) == 0 {
		ss.Seeds = []uint64{r.cfg.Seed}
	}
	specs, err := ss.Expand(0)
	if err != nil {
		return nil, err
	}
	resolved := make([]*spec.Resolved, len(specs))
	for i, rs := range specs {
		if resolved[i], err = rs.Resolve(nil); err != nil {
			return nil, err
		}
	}
	results := r.exec.Execute(context.Background(), resolved, nil)
	if err := exec.FirstError(results); err != nil {
		return nil, err
	}
	g := make(grid, len(results))
	for i := range results {
		s := &results[i].Spec
		g[cellKey{s.Machine.Name, s.Policy.ID(), s.Workload.ID(), s.Seed}] = &results[i]
	}
	return g, nil
}
