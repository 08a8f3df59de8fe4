package sim

import (
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

func shortOpts(policy, wl string) Options {
	w, _ := workload.GetWorkload(wl)
	return Options{Policy: policy, Workload: w, WarmupCycles: 8000, MeasureCycles: 15000}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(shortOpts("icount", "2-MIX"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 15000 {
		t.Errorf("cycles %d", res.Cycles)
	}
	if len(res.Threads) != 2 {
		t.Fatalf("%d threads", len(res.Threads))
	}
	if res.Throughput <= 0 {
		t.Error("zero throughput")
	}
	sum := 0.0
	for _, th := range res.Threads {
		sum += th.IPC
	}
	if sum != res.Throughput {
		t.Errorf("throughput %v != sum of IPCs %v", res.Throughput, sum)
	}
	if res.Policy != "ICOUNT" || res.Workload != "2-MIX" || res.Machine != "baseline" {
		t.Errorf("labels: %s/%s/%s", res.Policy, res.Workload, res.Machine)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(shortOpts("dwarn", "2-MEM"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shortOpts("dwarn", "2-MEM"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput {
		t.Errorf("non-deterministic: %v vs %v", a.Throughput, b.Throughput)
	}
}

func TestRunSeedChangesResult(t *testing.T) {
	o1 := shortOpts("icount", "2-MIX")
	o2 := shortOpts("icount", "2-MIX")
	o2.Seed = 777
	a, _ := Run(o1)
	b, _ := Run(o2)
	if a.Throughput == b.Throughput {
		t.Error("different seeds gave identical throughput")
	}
}

func TestRunUnknownPolicy(t *testing.T) {
	o := shortOpts("nonesuch", "2-MIX")
	if _, err := Run(o); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRunBadWorkload(t *testing.T) {
	o := Options{Policy: "icount", Workload: workload.Workload{Name: "bad", Threads: 1, Benchmarks: []string{"nope"}}}
	if _, err := Run(o); err == nil {
		t.Error("bad workload accepted")
	}
}

func TestRunSolo(t *testing.T) {
	res, err := RunSolo(nil, "gzip", 42, 8000, 15000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 1 || res.Threads[0].Benchmark != "gzip" {
		t.Fatalf("solo result %+v", res.Threads)
	}
	if res.Threads[0].IPC <= 0 {
		t.Error("solo IPC zero")
	}
}

func TestRunOnSmallMachine(t *testing.T) {
	o := shortOpts("dwarn", "2-MEM")
	o.Config = config.Small()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine != "small" {
		t.Errorf("machine %s", res.Machine)
	}
}

func TestFlushedFraction(t *testing.T) {
	o := shortOpts("flush", "2-MEM")
	o.MeasureCycles = 30000
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	f := res.FlushedFraction()
	if f <= 0 || f >= 1 {
		t.Errorf("flushed fraction %v not in (0,1)", f)
	}
	res2, _ := Run(shortOpts("icount", "2-MEM"))
	if res2.FlushedFraction() != 0 {
		t.Error("ICOUNT reported flushed instructions")
	}
}

func TestIPCsVector(t *testing.T) {
	res, err := Run(shortOpts("icount", "2-ILP"))
	if err != nil {
		t.Fatal(err)
	}
	ipcs := res.IPCs()
	if len(ipcs) != 2 || ipcs[0] != res.Threads[0].IPC {
		t.Errorf("IPCs %v", ipcs)
	}
}

func TestResultString(t *testing.T) {
	res, err := Run(shortOpts("icount", "2-ILP"))
	if err != nil {
		t.Fatal(err)
	}
	if s := res.String(); len(s) < 20 {
		t.Errorf("short string %q", s)
	}
}

func TestSoloWorkloadShape(t *testing.T) {
	wl := SoloWorkload("mcf")
	if wl.Threads != 1 || wl.Benchmarks[0] != "mcf" || wl.Name != "solo-mcf" {
		t.Errorf("solo workload %+v", wl)
	}
}

// TestCheckEveryObservesOnly: in-loop invariant checks pass on a
// flush-heavy run, through both the plain and the timeline-sampled
// loop, and change neither the counters nor the fingerprint.
func TestCheckEveryObservesOnly(t *testing.T) {
	wl, err := workload.GetWorkload("4-MEM")
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"flush", "dwarn"} {
		base := Options{Policy: policy, Workload: wl, Seed: 3, WarmupCycles: 1500, MeasureCycles: 4000}
		plain, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		checked := base
		checked.CheckEvery = 250
		for _, tl := range []*timeline.Config{nil, {IntervalCycles: 1000}} {
			checked.Timeline = tl
			res, err := Run(checked)
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			if got, want := res.CounterDigest(), plain.CounterDigest(); got != want {
				t.Errorf("%s (timeline %v): counter digest changed with checks on", policy, tl != nil)
			}
		}
		if Fingerprint(checked) != Fingerprint(base) {
			t.Errorf("%s: CheckEvery changed the fingerprint", policy)
		}
	}
}
