package sim

import (
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// TestStepZeroAllocSteadyState is the allocation guard for the cycle
// engine: once the machine is warm (the policy's and the pipeline's
// scratch buffers are sized), the cycle loop must not allocate at all,
// under every registered policy, with the streams filled inline and read
// ahead, on each row of allocRows. It counts every heap allocation the
// process makes over a whole 30k-cycle cpu.Run, producers included,
// rather than an average per Step that rounds a few hundred allocations
// down to zero; read-ahead runs get runtimeAllowance for the runtime's
// own. A regression here reintroduces GC pressure on the hot loop that
// every experiment, sweep, and service request bottoms out in. Rows
// marked dtlbMiss must also see a DTLB miss in the window, so the
// TLB's miss path (victim scan and index update) is inside the guard.
func TestStepZeroAllocSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs tens of thousands of cycles")
	}
	for _, policy := range core.Policies() {
		t.Run(policy, func(t *testing.T) {
			for _, m := range streamModes {
				t.Run(m.name, func(t *testing.T) {
					for _, row := range allocRows {
						t.Run(row.machine+"-"+row.workload, func(t *testing.T) {
							cfg, err := config.ByName(row.machine)
							if err != nil {
								t.Fatal(err)
							}
							wl, err := workload.GetWorkload(row.workload)
							if err != nil {
								t.Fatal(err)
							}
							srcs := engineSources(t, wl, row.seed, m.ahead)
							pol, err := core.NewPolicy(policy)
							if err != nil {
								t.Fatal(err)
							}
							cpu, err := pipeline.New(cfg, pol, srcs)
							if err != nil {
								t.Fatal(err)
							}
							defer cpu.Release()
							// Long warmup: the caches, predictor and
							// policy state settle before measuring.
							var misses uint64
							n := steadyMallocs(func() { cpu.Run(60_000) }, func() {
								before := dtlbMisses(cpu)
								cpu.Run(30_000)
								misses = dtlbMisses(cpu) - before
							})
							if max := runtimeAllowance(m.ahead); n > max {
								t.Errorf("%s %s %s: %d heap allocations over 30k steady-state cycles, want at most %d", row.machine, row.workload, m.name, n, max)
							}
							if row.dtlbMiss && misses == 0 {
								t.Errorf("%s %s %s: no DTLB miss in the window, so the guard does not cover the TLB's miss path", row.machine, row.workload, m.name)
							}
						})
					}
				})
			}
		})
	}
}

// allocRows are the machines and workloads the allocation guard steps.
// pipeline.New sizes the fetch queues, reorder buffers and squash
// buffer to their bounds, and the event ring's buckets to a measured
// bound (bucketCap), which baseline 4-ILP at seed 3 needs: ICOUNT puts
// 17 events in one bucket there. Deep 2-MEM is left out: its
// instruction arena, and FLUSH's replay stacks, still reach their
// high-water marks after the warm-up (1–3 allocations per window). Both
// grow lazily on purpose: filling them to their static bounds at New (a
// thread's fetch queue plus ROB each) cost engine 5% more peak RSS.
var allocRows = []struct {
	machine, workload string
	seed              uint64
	dtlbMiss          bool
}{
	{"baseline", "4-MIX", DefaultSeed, false},
	{"baseline", "4-ILP", 3, false},
	{"deep", "8-MEM", DefaultSeed, true},
	{"deep", "4-ILP", DefaultSeed, false},
}

// dtlbMisses sums the DTLB misses of every thread of cpu.
func dtlbMisses(cpu *pipeline.CPU) uint64 {
	var n uint64
	for _, st := range cpu.Mem().Threads {
		n += st.TLBMisses
	}
	return n
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

// steadyMallocs runs warm, then returns how many heap allocations the
// process made while measure ran (runtime.MemStats.Mallocs, every
// goroutine counted). Two things the runtime does on its own are kept
// out of the window. The collector is off from the start of warm to the
// end of measure (a collection in flight finishes first), so no
// collection empties the runtime's caches just before the window. And a
// window in which the runtime started an OS thread is taken again over
// the next stretch of the run: starting one allocates five objects (a
// process first needs its fifth thread at no fixed point, and failed a
// run of this guard in three), and the next window starts none.
func steadyMallocs(warm, measure func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm()
	threads := pprof.Lookup("threadcreate")
	for {
		started := threads.Count()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		measure()
		runtime.ReadMemStats(&after)
		if threads.Count() == started {
			return after.Mallocs - before.Mallocs
		}
	}
}
