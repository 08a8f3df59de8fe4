package sim

import (
	"runtime"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// TestStepZeroAllocSteadyState is the allocation guard for the cycle
// engine: once the machine is warm (the DynInst arena has grown to its
// peak, the policy's and the pipeline's scratch buffers are sized),
// the cycle loop must not allocate at all, under every registered
// policy, with the streams filled inline and read ahead. It counts
// every heap allocation the process makes over a whole 30k-cycle
// cpu.Run, producers included, rather than an average per Step that
// rounds a few hundred allocations down to zero; read-ahead runs get
// runtimeAllowance for the runtime's own. A regression here
// reintroduces GC pressure on the hot loop that every experiment,
// sweep, and service request bottoms out in.
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
					defer cpu.Release()
					// Long warmup: the arena must reach its high-water
					// mark before measuring.
					cpu.Run(60_000)
					if n, max := mallocsDuring(func() { cpu.Run(30_000) }), runtimeAllowance(m.ahead); n > max {
						t.Errorf("%s %s: %d heap allocations over 30k steady-state cycles, want at most %d", policy, m.name, n, max)
					}
				})
			}
		})
	}
}

// runtimeAllowance is how many heap allocations a 30k-cycle window may
// show that the simulator does not make. A stream consumer that blocks
// on its producer's channel takes a runtime sudog from its P's cache;
// when the two goroutines have drifted between Ps since a collection
// emptied the runtime's central cache, the runtime allocates one. Over
// 30 runs of both guards, read-ahead windows showed at most one such
// allocation, always that sudog. A stream filling inline blocks on
// nothing and gets no allowance; the simulator code both modes run is
// the same, so the inline windows pin it at 0.
func runtimeAllowance(ahead bool) uint64 {
	if ahead {
		return 4
	}
	return 0
}

// mallocsDuring returns how many heap allocations the process made
// while f ran (runtime.MemStats.Mallocs, every goroutine counted).
func mallocsDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
