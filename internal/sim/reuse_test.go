package sim

import (
	"path/filepath"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

// reuseShapes are runs of different shapes made back to back, so the
// buffers each run releases are taken by a run of another cache
// geometry, event horizon or thread count. golden names the run's
// entry in the golden digest files ("" when none pins it).
var reuseShapes = []struct {
	name, machine, workload, policy string
	warmup, measure                 int64
	sampled                         bool
	golden                          string
}{
	{"baseline-2-MIX", "baseline", "2-MIX", "dwarn", wideWarmup, wideMeasure, false, "baseline/2-MIX"},
	{"deep-8-MEM", "deep", "8-MEM", "dwarn", wideWarmup, wideMeasure, false, ""},
	{"small-4-MIX", "small", "4-MIX", "dg", wideWarmup, wideMeasure, false, "small/4-MIX"},
	{"solo-mcf", "baseline", "solo-mcf", "icount", wideWarmup, wideMeasure, false, ""},
	{"flush-8-MEM", "baseline", "8-MEM", "flush", wideWarmup, wideMeasure, false, "baseline/8-MEM"},
	{"sampled-4-MIX", "baseline", goldenWorkload, "stall", goldenWarmup, goldenMeasure, true, "baseline/" + goldenWorkload},
}

// TestReusedMachineEqualsFresh runs reuseShapes twice in one process.
// Every run but the first takes released buffers (cache lines, event
// ring, arena slabs, stream chunks) from an earlier run,
// on the second pass always; its digest must equal its first-pass
// digest and the golden files, so a recycled buffer carries nothing of
// its last run. CI also runs it at GOMAXPROCS=1, where the per-P pools
// hand every released buffer to the next run.
func TestReusedMachineEqualsFresh(t *testing.T) {
	var base map[string]goldenEntry
	var wide map[string]map[string]goldenEntry
	readGolden(t, filepath.Join("testdata", "golden_digests.json"), &base)
	readGolden(t, filepath.Join("testdata", "golden_digests_wide.json"), &wide)
	golden := func(key, policy string) (goldenEntry, bool) {
		if key == "baseline/"+goldenWorkload {
			e, ok := base[policy]
			return e, ok
		}
		e, ok := wide[key][policy]
		return e, ok
	}

	first := make(map[string]string)
	for pass := 1; pass <= 2; pass++ {
		for _, sc := range reuseShapes {
			cfg, err := config.ByName(sc.machine)
			if err != nil {
				t.Fatal(err)
			}
			wl := SoloWorkload("mcf")
			if sc.workload != wl.Name {
				if wl, err = workload.GetWorkload(sc.workload); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{
				Config: cfg, Policy: sc.policy, Workload: wl, Seed: goldenSeed,
				WarmupCycles: sc.warmup, MeasureCycles: sc.measure,
			}
			if sc.sampled {
				opts.Timeline = &timeline.Config{IntervalCycles: 1000}
			}
			res, err := Run(opts)
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, sc.name, err)
			}
			if sc.sampled && res.Timeline == nil {
				t.Fatalf("pass %d %s: no timeline", pass, sc.name)
			}
			got := res.CounterDigest()
			if pass == 1 {
				first[sc.name] = got
			} else if got != first[sc.name] {
				t.Errorf("pass 2 %s: digest %s, first pass %s", sc.name, got, first[sc.name])
			}
			if sc.golden == "" {
				continue
			}
			want, ok := golden(sc.golden, sc.policy)
			if !ok {
				t.Fatalf("%s: no golden entry %s %s", sc.name, sc.golden, sc.policy)
			}
			if got != want.Digest {
				t.Errorf("pass %d %s: digest %s, golden %s", pass, sc.name, got, want.Digest)
			}
		}
	}
}

// TestSecondReleaseIsHarmless releases one machine twice, then steps
// two identical machines side by side. Had the second Release pooled
// the buffers again, both machines could be handed the same cache
// lines or arena slabs and would diverge; they must count alike.
func TestSecondReleaseIsHarmless(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	build := func(srcs []*workload.Stream) *pipeline.CPU {
		cpu, err := pipeline.New(config.Baseline(), core.MustNewPolicy("flush"), srcs)
		if err != nil {
			t.Fatal(err)
		}
		return cpu
	}
	released := build(engineSources(t, wl, goldenSeed, false))
	released.Run(5000)
	// Calibrate first: the collector empties pools, so nothing that
	// allocates much may run between the releases and the builds.
	srcsA := engineSources(t, wl, goldenSeed, false)
	srcsB := engineSources(t, wl, goldenSeed, false)
	released.Release()
	released.Release()

	a, b := build(srcsA), build(srcsB)
	defer a.Release()
	defer b.Release()
	for i := 0; i < 10; i++ {
		a.Run(1000)
		b.Run(1000)
	}
	for th := 0; th < a.NumThreads(); th++ {
		if sa, sb := a.ThreadStats(th), b.ThreadStats(th); sa != sb {
			t.Errorf("thread %d: %+v vs %+v", th, sa, sb)
		}
		if ma, mb := a.Mem().Threads[th], b.Mem().Threads[th]; ma != mb {
			t.Errorf("thread %d memory: %+v vs %+v", th, ma, mb)
		}
	}
}
