package sim

import (
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// TestStepZeroAllocSteadyState is the allocation guard for the cycle
// engine: once the machine is warm (the DynInst arena, event-queue
// buckets, deques, and policy scratch buffers have grown to their
// steady-state capacities), pipeline.Step must not allocate at all,
// under every registered policy, with the streams filled inline and
// read ahead. A regression here reintroduces GC
// pressure on the hot loop that every experiment, sweep, and service
// request bottoms out in.
func TestStepZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs tens of thousands of cycles")
	}
	wl, err := workload.GetWorkload("4-MIX")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range core.Policies() {
		t.Run(policy, func(t *testing.T) {
			for _, m := range streamModes {
				t.Run(m.name, func(t *testing.T) {
					srcs := engineSources(t, wl, DefaultSeed, m.ahead)
					pol, err := core.NewPolicy(policy)
					if err != nil {
						t.Fatal(err)
					}
					cpu, err := pipeline.New(config.Baseline(), pol, srcs)
					if err != nil {
						t.Fatal(err)
					}
					// Long warmup: every pool and scratch buffer must reach
					// its high-water mark before measuring.
					cpu.Run(60_000)
					avg := testing.AllocsPerRun(3000, func() { cpu.Step() })
					if avg != 0 {
						t.Errorf("%s %s: %.4f allocs/cycle in steady state, want 0", policy, m.name, avg)
					}
				})
			}
		})
	}
}
