package sim

import (
	"sync"
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/workload"
)

// Run metrics are a cheap end-of-run snapshot recorded once per
// simulation on obs.Default, entirely outside the cycle loop — the
// engine's zero-allocation steady state (TestStepZeroAllocSteadyState)
// is untouched. dwarnd merges obs.Default into /metrics, and
// `smtsim -metrics` dumps it, so the same series describe a run no
// matter which frontend asked for it. The unlabelled series are
// created once; the per-policy ones are looked up per run, because
// obs.Registry is already get-or-create under its own lock.
var runMetrics struct {
	once sync.Once

	errors    *obs.Counter
	cycles    *obs.Counter
	uops      *obs.Counter
	cyclesSec *obs.Gauge
	uopsSec   *obs.Gauge
}

// ipcBuckets covers per-interval aggregate IPC on the repo's machines
// (an 8-wide fetch engine commits 0–6 uops/cycle in practice).
var ipcBuckets = []float64{0.25, 0.5, 0.75, 1, 1.5, 2, 2.5, 3, 3.5, 4, 5, 6}

func initRunMetrics() {
	r := obs.Default
	runMetrics.errors = r.Counter("dwarn_sim_run_errors_total", "Simulations that returned an error (bad options or cancellation).")
	runMetrics.cycles = r.Counter("dwarn_sim_cycles_total", "Simulated cycles across all runs (warmup + measurement).")
	runMetrics.uops = r.Counter("dwarn_sim_uops_total", "Committed (correct-path retired) uops across all measured intervals.")
	runMetrics.cyclesSec = r.Gauge("dwarn_sim_cycles_per_second", "Simulated cycles per wall second over the most recent run.")
	runMetrics.uopsSec = r.Gauge("dwarn_sim_uops_per_second", "Committed uops per wall second over the most recent run's measured interval.")
	tapeHelp := "Correct-path chunks (512 uops) generated onto shared tapes, read back from them by the runs of their checkpoint group, and generated privately by runs that left their tape (memory bound spent, or no other run of the group to read on)."
	for i, op := range []string{"generated", "read", "private"} {
		r.CounterFunc("dwarn_tape_chunks_total", tapeHelp, func() float64 {
			g, n, p := workload.TapeChunks()
			return float64([]uint64{g, n, p}[i])
		}, obs.L("op", op))
	}
}

// recordRun folds one finished simulation into the snapshot.
func recordRun(res *Result, warmup int64, elapsed time.Duration) {
	runMetrics.once.Do(initRunMetrics)
	policy := res.Policy
	r := obs.Default
	r.Counter("dwarn_sim_runs_total", "Completed simulations by fetch policy.", obs.L("policy", policy)).Inc()
	r.Histogram("dwarn_sim_run_seconds", "Wall time of one complete simulation (warmup + measurement), by fetch policy.", obs.RunBuckets, obs.L("policy", policy)).Observe(elapsed.Seconds())
	var committed uint64
	for i := range res.Threads {
		committed += res.Threads[i].Pipeline.Committed
	}
	cycles := res.Cycles + warmup
	runMetrics.cycles.Add(uint64(cycles))
	runMetrics.uops.Add(committed)
	if s := elapsed.Seconds(); s > 0 {
		runMetrics.cyclesSec.Set(float64(cycles) / s)
		runMetrics.uopsSec.Set(float64(committed) / s)
	}
}

// recordTimeline folds one run's interval frames into the per-interval
// series: frame count, interval-IPC distribution, and thread-cycles by
// gate decision class — the aggregate view of the same attribution the
// frames carry per interval. Cold path, once per sampled run.
func recordTimeline(res *Result) {
	runMetrics.once.Do(initRunMetrics)
	policy := res.Policy
	tl := res.Timeline
	r := obs.Default
	r.Counter("dwarn_timeline_frames_total", "Timeline interval frames sampled, by fetch policy.", obs.L("policy", policy)).Add(uint64(len(tl.Frames)))
	ipc := r.Histogram("dwarn_timeline_interval_ipc", "Aggregate committed IPC of each sampled interval, by fetch policy.", ipcBuckets, obs.L("policy", policy))
	var normal, demoted, gated uint64
	for i := range tl.Frames {
		f := &tl.Frames[i]
		ipc.Observe(f.IPC())
		for j := range f.Threads {
			normal += f.Threads[j].GateNormalCycles
			demoted += f.Threads[j].GateDemotedCycles
			gated += f.Threads[j].GateGatedCycles
		}
	}
	gateCycles(policy, "normal").Add(normal)
	gateCycles(policy, "demoted").Add(demoted)
	gateCycles(policy, "gated").Add(gated)
}

func gateCycles(policy, class string) *obs.Counter {
	return obs.Default.Counter("dwarn_timeline_gate_cycles_total", "Thread-cycles attributed to each fetch-gate decision class over sampled intervals.", obs.L("policy", policy), obs.L("class", class))
}

// recordRunError counts a failed simulation.
func recordRunError() {
	runMetrics.once.Do(initRunMetrics)
	runMetrics.errors.Inc()
}
