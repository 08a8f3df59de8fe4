package sim

import (
	"reflect"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

// TestTimelineSamplingDoesNotPerturbCounters: turning the sampler on
// must not change a single architectural counter. The sampled run
// drives the same Step sequence through interval-sized chunks, so the
// counter digest is bit-identical with sampling on and off — under
// every registered policy.
func TestTimelineSamplingDoesNotPerturbCounters(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range core.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			base := Options{
				Policy:        policy,
				Workload:      wl,
				Seed:          7,
				WarmupCycles:  3000,
				MeasureCycles: 9000,
			}
			plain, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			sampled := base
			sampled.Timeline = &timeline.Config{IntervalCycles: 1000}
			withTL, err := Run(sampled)
			if err != nil {
				t.Fatal(err)
			}
			if withTL.Timeline == nil || len(withTL.Timeline.Frames) == 0 {
				t.Fatal("sampled run returned no frames")
			}
			if got, want := withTL.CounterDigest(), plain.CounterDigest(); got != want {
				t.Errorf("counter digest changed with sampling: %s vs %s", got, want)
			}
		})
	}
}

// TestTimelineLiveVsReplay: frames from a trace-replay run are
// bit-identical to the live generator run's frames, for every policy.
// The timeline is a pure function of the Step sequence, and replay
// reproduces that sequence exactly.
func TestTimelineLiveVsReplay(t *testing.T) {
	const (
		wlName  = "2-MIX"
		seed    = 42
		warmup  = 3000
		measure = 9000
		uops    = 90000
	)
	tr := recordTrace(t, wlName, seed, uops)
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &timeline.Config{IntervalCycles: 1500}

	for _, policy := range core.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			live, err := Run(Options{
				Policy: policy, Workload: wl, Seed: seed,
				WarmupCycles: warmup, MeasureCycles: measure,
				Timeline: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			replay, err := Run(Options{
				Policy: policy, Trace: tr, Seed: seed,
				WarmupCycles: warmup, MeasureCycles: measure,
				Timeline: cfg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live.Timeline, replay.Timeline) {
				t.Errorf("replay timeline diverges from live:\nlive:   %+v\nreplay: %+v",
					live.Timeline, replay.Timeline)
			}
		})
	}
}

// TestTimelineTrailingPartialInterval: a measure window that is not a
// multiple of the interval still accounts for every cycle — the last
// frame is short, and frame bounds tile the window exactly.
func TestTimelineTrailingPartialInterval(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Policy: "icount", Workload: wl, Seed: 1,
		WarmupCycles: 1000, MeasureCycles: 2500,
		Timeline: &timeline.Config{IntervalCycles: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	fr := res.Timeline.Frames
	if len(fr) != 3 {
		t.Fatalf("%d frames for 2500 cycles at 1000/interval, want 3", len(fr))
	}
	var prev int64
	for i := range fr {
		if fr[i].StartCycle != prev {
			t.Errorf("frame %d starts at %d, want %d (gap or overlap)", i, fr[i].StartCycle, prev)
		}
		prev = fr[i].EndCycle
	}
	if prev != 2500 {
		t.Errorf("frames end at %d, want 2500", prev)
	}
	if short := fr[2].EndCycle - fr[2].StartCycle; short != 500 {
		t.Errorf("trailing frame spans %d cycles, want 500", short)
	}
}

// TestTimelineOnFrameStreams: OnFrame fires once per closed interval,
// in order, even past the retention cap — streaming sees frames the
// ring has already dropped.
func TestTimelineOnFrameStreams(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	var starts []int64
	res, err := Run(Options{
		Policy: "dwarn", Workload: wl, Seed: 3,
		WarmupCycles: 1000, MeasureCycles: 6000,
		Timeline: &timeline.Config{IntervalCycles: 1000, MaxFrames: 2},
		OnFrame:  func(f *timeline.Frame) { starts = append(starts, f.StartCycle) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 6 {
		t.Fatalf("OnFrame fired %d times, want 6", len(starts))
	}
	for i, s := range starts {
		if s != int64(i)*1000 {
			t.Errorf("frame %d starts at %d, want %d", i, s, i*1000)
		}
	}
	if res.Timeline.DroppedFrames != 4 || len(res.Timeline.Frames) != 2 {
		t.Errorf("retention: dropped=%d retained=%d, want 4/2",
			res.Timeline.DroppedFrames, len(res.Timeline.Frames))
	}
}

// TestStepZeroAllocWithSampling extends the zero-alloc guarantee to the
// timeline layer: steady-state stepping with gate sampling enabled and
// interval frames being taken makes no heap allocation over 30k
// cycles, with the streams filled inline and read ahead (less the
// runtime's own, runtimeAllowance).
func TestStepZeroAllocWithSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range streamModes {
		t.Run(m.name, func(t *testing.T) {
			stepSampledZeroAlloc(t, engineSources(t, wl, 42, m.ahead), runtimeAllowance(m.ahead))
		})
	}
}

func stepSampledZeroAlloc(t *testing.T, srcs []*workload.Stream, max uint64) {
	pol, err := core.NewPolicy("dwarn")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := pipeline.New(config.Baseline(), pol, srcs)
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Release()
	cpu.EnableGateSampling()
	sampler := timeline.NewSampler(timeline.Config{IntervalCycles: 100, MaxFrames: 16}, cpu.NumThreads())

	// Warm up as the base engine guard does, then count over 30k
	// cycles like TestStepZeroAllocSteadyState, but take a frame every
	// single cycle: an interval boundary is never cheaper than a plain
	// cycle, so this covers every sampled run.
	cycle := int64(60_000)
	n := steadyMallocs(func() { cpu.Run(cycle) }, func() {
		for end := cycle + 30_000; cycle < end; cycle++ {
			cpu.Step()
			sampler.Sample(cpu, cycle, cycle+1)
		}
	})
	if n > max {
		t.Errorf("steady-state step+sample made %d heap allocations over 30k cycles, want at most %d", n, max)
	}
}
