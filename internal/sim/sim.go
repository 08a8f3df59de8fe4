// Package sim assembles a complete simulation — machine configuration,
// fetch policy, synthetic workload — and runs the paper's measurement
// protocol: warm up the microarchitectural state, reset the counters,
// measure for a fixed number of cycles.
package sim

import (
	"context"
	"fmt"
	"time"

	"dwarn/internal/bpred"
	"dwarn/internal/ckpt"
	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/mem/hierarchy"
	"dwarn/internal/obs"
	"dwarn/internal/pipeline"
	"dwarn/internal/timeline"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// DefaultSeed makes every experiment reproducible by default.
const DefaultSeed = 42

// Options selects what to simulate and for how long.
type Options struct {
	// Config is the machine; nil means config.Baseline().
	Config *config.Processor
	// Policy is a registry name ("icount", "stall", "flush", "dg",
	// "pdg", "dwarn", "dwarn-prio"). Ignored if PolicyInstance is set.
	Policy string
	// PolicyParams tunes the named policy's registry-declared parameters
	// (DWarn's warn threshold, STALL/FLUSH's declaration threshold, DG's
	// gate count); absent parameters take their paper defaults. This is
	// how specs request the paper's §5 threshold sweeps.
	PolicyParams map[string]int64
	// PolicyInstance overrides Policy with a pre-built policy — the
	// in-process escape hatch for policies living outside the registry.
	// Registry policies should use Policy + PolicyParams instead, which
	// content-addressed caches understand natively.
	PolicyInstance pipeline.FetchPolicy
	// Workload is the multiprogrammed workload to run. Ignored when
	// Trace is set (the trace's own metadata drives thread count and
	// benchmarks).
	Workload workload.Workload
	// Trace, when set, replays a recorded uop trace instead of running
	// the synthetic generators: thread streams come from the trace and
	// wrong paths are synthesized from its metadata, bit-identical to
	// the recorded run.
	Trace *trace.Trace
	// Record, when set, wraps every thread source in the trace writer
	// so the run's correct-path uop streams are recorded as a side
	// effect. The caller serializes the writer after Run returns.
	Record *trace.Writer
	// Seed drives all synthetic randomness; 0 means DefaultSeed.
	Seed uint64
	// WarmupCycles and MeasureCycles control the protocol; zero values
	// take the defaults (20k warmup, 100k measured).
	WarmupCycles  int64
	MeasureCycles int64
	// Timeline, when non-nil, samples per-thread interval frames during
	// the measured window into Result.Timeline. A metrics option, not a
	// different simulation: sampling is observation only (counters and
	// the content-addressed fingerprint are bit-identical with it on or
	// off).
	Timeline *timeline.Config
	// OnFrame, when set alongside Timeline, receives each interval
	// frame as it closes — the live-streaming seam (dwarnd's SSE frame
	// events). The frame's Threads slice is ring storage reused after
	// Timeline.MaxFrames further samples; consume or copy it before
	// returning.
	OnFrame func(*timeline.Frame)
	// CheckEvery, when positive, validates the pipeline's bookkeeping
	// (pipeline.CPU.CheckInvariants: registers, queue occupancy, ready
	// lists, ROB order) whenever the core's clock reaches a multiple of
	// CheckEvery during warmup and measurement, and fails the run on
	// the first violation. A diagnostic, like Timeline: it only
	// observes, so counters and the fingerprint are the same with it on
	// or off.
	CheckEvery int64
	// Checkpoints, when non-nil, enables the checkpoint/fork engine:
	// runs sharing a CheckpointKey (same workload and seed — machine,
	// policy and run lengths deliberately excluded) fork their
	// calibrated program cores from the store instead of synthesizing
	// and calibrating programs; every run still builds its own
	// generators and machine and prewarms it. Purely an optimization:
	// forked runs are bit-identical to cold starts, and an image that
	// does not fit falls back to a cold calibration. Runs whose key is
	// empty (trace replay, recording, out-of-registry policies) ignore
	// the store.
	Checkpoints ckpt.Store
}

// Default run lengths: long enough that IPCs are stable to within a few
// percent (the mid/far regions complete several laps; the predictor and
// caches reach steady state), short enough that the full paper grid
// runs in minutes.
const (
	DefaultWarmupCycles  = 20_000
	DefaultMeasureCycles = 100_000
)

// ThreadResult carries one thread's measured behaviour.
type ThreadResult struct {
	// Benchmark is the synthetic program name.
	Benchmark string
	// IPC is committed instructions per cycle.
	IPC float64
	// Pipeline counters for the measurement interval.
	Pipeline pipeline.ThreadStats
	// Mem is the memory system's view (loads, misses, TLB).
	Mem hierarchy.ThreadStats
	// Bpred is the predictor's view.
	Bpred bpred.Stats
}

// Result is the outcome of one simulation.
type Result struct {
	// Workload and Policy identify the run.
	Workload string
	Policy   string
	Machine  string
	// Cycles measured.
	Cycles int64
	// Threads holds per-thread results in workload order.
	Threads []ThreadResult
	// Throughput is the sum of per-thread IPCs.
	Throughput float64
	// Timeline holds the per-interval frames when Options.Timeline
	// requested sampling; nil otherwise (including results computed by
	// a run that did not sample — timeline is non-semantic, so caches
	// may legitimately hold frame-less results for the same
	// fingerprint).
	Timeline *timeline.Timeline `json:",omitempty"`
}

// IPCs returns the per-thread IPC vector.
func (r *Result) IPCs() []float64 {
	out := make([]float64, len(r.Threads))
	for i, t := range r.Threads {
		out[i] = t.IPC
	}
	return out
}

// FlushedFraction returns policy-flushed instructions as a fraction of
// all fetched instructions (the paper's Figure 2 metric). Zero when
// nothing was fetched.
func (r *Result) FlushedFraction() float64 {
	var flushed, fetched uint64
	for _, t := range r.Threads {
		flushed += t.Pipeline.FlushSquashed
		fetched += t.Pipeline.Fetched
	}
	if fetched == 0 {
		return 0
	}
	return float64(flushed) / float64(fetched)
}

// Run executes one simulation.
func Run(opts Options) (*Result, error) {
	return RunContext(context.Background(), opts)
}

// cancelCheckInterval is how many cycles RunContext simulates between
// context checks: coarse enough that the check is free relative to the
// cycle loop, fine enough that cancellation lands within microseconds.
const cancelCheckInterval = 4096

// runCycles advances the CPU n cycles, polling ctx between chunks. With
// checkEvery > 0 chunks also end on multiples of checkEvery on the
// core's clock, where the pipeline invariants are checked; chunking
// never changes the Step sequence.
func runCycles(ctx context.Context, cpu *pipeline.CPU, n, checkEvery int64) error {
	for n > 0 {
		chunk := int64(cancelCheckInterval)
		if checkEvery > 0 {
			chunk = min(chunk, checkEvery-cpu.Now()%checkEvery)
		}
		chunk = min(chunk, n)
		cpu.Run(chunk)
		n -= chunk
		if checkEvery > 0 && cpu.Now()%checkEvery == 0 {
			if err := cpu.CheckInvariants(); err != nil {
				return fmt.Errorf("sim: invariant check at cycle %d: %w", cpu.Now(), err)
			}
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// RunContext executes one simulation, abandoning it (and returning
// ctx.Err()) if the context is cancelled mid-run. This is the entry
// point long-lived callers (the dwarnd service) use so a disconnected
// or superseded request stops burning CPU. Each completed run records
// a metrics snapshot (wall time, cycles/sec, uops/sec, per-policy run
// counts) on obs.Default — sampled here, after the cycle loop, so the
// engine's zero-allocation guarantee is untouched.
func RunContext(ctx context.Context, opts Options) (*Result, error) {
	start := time.Now()
	res, err := runContext(ctx, opts)
	if err != nil {
		recordRunError()
		return nil, err
	}
	warmup := opts.WarmupCycles
	if warmup == 0 {
		warmup = DefaultWarmupCycles
	}
	recordRun(res, warmup, time.Since(start))
	if res.Timeline != nil {
		recordTimeline(res)
	}
	// The request-scoped trace (when a frontend attached one) reaches
	// its innermost hop here: the run that did the simulated work.
	if log := obs.LoggerFrom(ctx); log.Enabled(obs.LevelDebug) {
		log.Debug("sim run",
			"trace", obs.TraceID(ctx), "span", obs.SpanID(ctx),
			"policy", res.Policy, "workload", res.Workload, "machine", res.Machine,
			"cycles", res.Cycles, "throughput", res.Throughput,
			"dur", time.Since(start).Round(time.Microsecond))
	}
	return res, nil
}

// readAheader is the part of workload.Stream (and of trace.Replayer,
// which embeds one) that runContext drives.
type readAheader interface {
	ReadAhead()
	Stop()
}

// readAhead switches every stream in srcs to read-ahead; each producer
// starts on its stream's first Next.
func readAhead(srcs []workload.Source) {
	for _, src := range srcs {
		if r, ok := src.(readAheader); ok {
			r.ReadAhead()
		}
	}
}

// stopStreams ends every read-ahead producer in srcs.
func stopStreams(srcs []workload.Source) {
	for _, src := range srcs {
		if r, ok := src.(readAheader); ok {
			r.Stop()
		}
	}
}

// buildSources returns the run's per-thread uop sources and benchmark
// names: trace replayers, or fresh streams over the group's calibrated
// program cores.
func buildSources(opts Options, seed uint64) ([]workload.Source, []string, error) {
	if opts.Trace != nil {
		return opts.Trace.Sources(), opts.Trace.Benchmarks(), nil
	}
	cores, err := groupCores(opts, seed)
	if err != nil {
		return nil, nil, err
	}
	return workload.Sources(cores), opts.Workload.Benchmarks, nil
}

// groupCores returns a synthetic run's calibrated program cores. With
// a checkpoint store they are forked from the group's image when the
// store holds one whose cores fit the workload; otherwise they are
// calibrated cold and published for the group's other runs.
func groupCores(opts Options, seed uint64) ([]*workload.Core, error) {
	if opts.Checkpoints == nil {
		return opts.Workload.Cores(seed)
	}
	key := CheckpointKey(opts)
	if img, ok := opts.Checkpoints.Get(key); ok {
		if opts.Workload.Fits(seed, img.Cores) == nil {
			ckpt.RecordHit()
			return img.Cores, nil
		}
		ckpt.RecordFallback()
	}
	cores, err := opts.Workload.Cores(seed)
	if err != nil {
		return nil, err
	}
	img := &ckpt.Image{Key: key, Cores: cores}
	opts.Checkpoints.Put(key, img)
	ckpt.RecordMiss(img.ApproxBytes())
	return cores, nil
}

func runContext(ctx context.Context, opts Options) (*Result, error) {
	cfg := opts.Config
	if cfg == nil {
		cfg = config.Baseline()
	}
	seed := opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	warmup := opts.WarmupCycles
	if warmup == 0 {
		warmup = DefaultWarmupCycles
	}
	measure := opts.MeasureCycles
	if measure == 0 {
		measure = DefaultMeasureCycles
	}

	pol := opts.PolicyInstance
	if pol == nil {
		var err error
		pol, err = core.NewPolicyParams(opts.Policy, opts.PolicyParams)
		if err != nil {
			return nil, err
		}
	}

	wlName := opts.Workload.Name
	if opts.Trace != nil && wlName == "" {
		wlName = "trace:" + opts.Trace.Workload
	}
	streams, benchmarks, err := buildSources(opts, seed)
	if err != nil {
		return nil, err
	}
	// Every exit path ends the read-ahead producers.
	defer stopStreams(streams)
	srcs := streams
	if opts.Record != nil {
		srcs = make([]workload.Source, len(streams))
		for i, s := range streams {
			srcs[i] = opts.Record.Record(s)
		}
	}
	cpu, err := pipeline.New(cfg, pol, srcs)
	if err != nil {
		return nil, err
	}
	prewarm(cpu, srcs)
	readAhead(streams)

	var sampler *timeline.Sampler
	if opts.Timeline != nil {
		sampler = timeline.NewSampler(*opts.Timeline, cpu.NumThreads())
		cpu.EnableGateSampling()
	}

	if err := runCycles(ctx, cpu, warmup, opts.CheckEvery); err != nil {
		return nil, err
	}
	cpu.ResetStats()
	if sampler == nil {
		if err := runCycles(ctx, cpu, measure, opts.CheckEvery); err != nil {
			return nil, err
		}
	} else if err := runSampled(ctx, cpu, measure, opts.CheckEvery, sampler, opts.OnFrame); err != nil {
		return nil, err
	}

	res := &Result{
		Workload: wlName,
		Policy:   pol.Name(),
		Machine:  cfg.Name,
		Cycles:   cpu.Stats.Cycles,
		Threads:  make([]ThreadResult, cpu.NumThreads()),
	}
	for i := range res.Threads {
		ps := cpu.ThreadStats(i)
		res.Threads[i] = ThreadResult{
			Benchmark: benchmarks[i],
			IPC:       ps.IPC(res.Cycles),
			Pipeline:  ps,
			Mem:       cpu.Mem().Threads[i],
			Bpred:     cpu.Bpred().Stats[i],
		}
		res.Throughput += res.Threads[i].IPC
	}
	if sampler != nil {
		res.Timeline = sampler.Timeline()
	}
	return res, nil
}

// runSampled is the measured cycle loop with timeline sampling: it
// advances the CPU in interval-sized chunks (each internally split at
// the cancellation-check granularity, so the Step sequence is
// identical to the unsampled loop) and closes one frame per boundary.
// A trailing partial interval gets a final short frame.
func runSampled(ctx context.Context, cpu *pipeline.CPU, n, checkEvery int64, s *timeline.Sampler, onFrame func(*timeline.Frame)) error {
	interval := s.IntervalCycles()
	for done := int64(0); done < n; {
		chunk := interval
		if rem := n - done; rem < chunk {
			chunk = rem
		}
		if err := runCycles(ctx, cpu, chunk, checkEvery); err != nil {
			return err
		}
		f := s.Sample(cpu, done, done+chunk)
		if onFrame != nil {
			onFrame(f)
		}
		done += chunk
	}
	return nil
}

// SoloWorkload wraps a single benchmark as a one-thread workload (used
// for Table 2a and for relative-IPC baselines).
func SoloWorkload(bench string) workload.Workload {
	return workload.Workload{
		Name:       "solo-" + bench,
		Threads:    1,
		Mix:        workload.MixILP,
		Benchmarks: []string{bench},
	}
}

// RunSolo measures one benchmark alone under ICOUNT on cfg — the
// denominator of the paper's relative-IPC metric.
func RunSolo(cfg *config.Processor, bench string, seed uint64, warmup, measure int64) (*Result, error) {
	return Run(Options{
		Config:        cfg,
		Policy:        "icount",
		Workload:      SoloWorkload(bench),
		Seed:          seed,
		WarmupCycles:  warmup,
		MeasureCycles: measure,
	})
}

// String renders a short human-readable summary.
func (r *Result) String() string {
	s := fmt.Sprintf("%s/%s on %s: throughput %.3f IPC over %d cycles [", r.Policy, r.Workload, r.Machine, r.Throughput, r.Cycles)
	for i, t := range r.Threads {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.3f", t.Benchmark, t.IPC)
	}
	return s + "]"
}
