package exp

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/exec"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// fastRunner uses very short simulations: these tests exercise the
// harness plumbing, not result quality.
func fastRunner() *Runner {
	return NewRunner(Config{WarmupCycles: 4000, MeasureCycles: 8000})
}

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := tb.Render()
	for _, want := range []string{"demo", "a", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestMachineFor(t *testing.T) {
	for _, name := range []string{"baseline", "small", "deep", ""} {
		if _, err := config.ByName(name); err != nil {
			t.Errorf("config.ByName(%q): %v", name, err)
		}
	}
	if _, err := config.ByName("nonesuch"); err == nil {
		t.Error("unknown machine accepted")
	}
}

// TestRunnerMemoises: running a grid again answers every cell from the
// executor's store, with the same result.
func TestRunnerMemoises(t *testing.T) {
	r := fastRunner()
	ss := spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	}
	g1, err := r.run(ss)
	if err != nil {
		t.Fatal(err)
	}
	first := g1.at("baseline", "icount", "2-MIX", r.cfg.Seed)
	if first == nil || first.Result == nil {
		t.Fatal("cell missing from its grid")
	}
	g2, err := r.run(ss)
	if err != nil {
		t.Fatal(err)
	}
	second := g2.at("baseline", "icount", "2-MIX", r.cfg.Seed)
	if !second.Cached || second.Result != first.Result {
		t.Errorf("second run re-simulated instead of memoising (cached %v)", second.Cached)
	}
}

// TestDefaultParamsShareMemo: an ablation cell whose parameters are all
// defaults must reuse the base policy's memo entry, not re-simulate.
func TestDefaultParamsShareMemo(t *testing.T) {
	r := fastRunner()
	base, err := r.run(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "stall"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	first := base.at("baseline", "stall", "2-MIX", r.cfg.Seed).Result

	tuned, err := r.run(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "stall", Params: map[string][]int64{"threshold": {15, 25}}}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := tuned.at("baseline", "stall", "2-MIX", r.cfg.Seed); c == nil || !c.Cached || c.Result != first {
		t.Error("threshold=15 (the default) did not share the base policy's memo entry")
	}
	if c := tuned.at("baseline", "stall(threshold=25)", "2-MIX", r.cfg.Seed); c == nil || c.Result == first {
		t.Error("threshold=25 not run as its own cell")
	}
}

// TestGridFindsEverySeed: a grid over two seeds answers each seed's
// cell, and the two are different runs.
func TestGridFindsEverySeed(t *testing.T) {
	r := fastRunner()
	g, err := r.run(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
		Seeds:     []uint64{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.at("baseline", "icount", "2-MIX", 1), g.at("baseline", "icount", "2-MIX", 2)
	if a == nil || b == nil {
		t.Fatalf("seed cells missing: seed 1 %v, seed 2 %v", a != nil, b != nil)
	}
	if a.Fingerprint == b.Fingerprint || a.Result.CounterDigest() == b.Result.CounterDigest() {
		t.Error("the two seeds' cells are the same run")
	}
}

// TestBaselinesGridReusesSolos: a second baselines grid over the same
// benchmarks simulates no solo baseline again, and both grids' cells
// carry their relative-IPC summaries.
func TestBaselinesGridReusesSolos(t *testing.T) {
	r := fastRunner()
	var solos atomic.Int64
	r.exec = exec.New(exec.Options{Workers: 2, Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		if res.Spec.Workload.Solo != "" {
			solos.Add(1)
		}
		return sim.RunContext(ctx, res.Options)
	}})
	wls := []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}} // gzip+twolf, mcf+twolf
	runGrid := func(policy string) {
		t.Helper()
		g, err := r.run(spec.SweepSpec{
			Policies:  []spec.PolicyAxis{{Name: policy}},
			Workloads: wls,
			Baselines: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, wl := range wls {
			if s := g.at("baseline", policy, wl.Name, r.cfg.Seed).Summary; s == nil || s.Hmean <= 0 {
				t.Fatalf("%s on %s: summary %+v", policy, wl.Name, s)
			}
		}
	}
	runGrid("icount")
	if n := solos.Load(); n != 3 {
		t.Fatalf("first grid simulated %d solos, want 3", n)
	}
	runGrid("dwarn")
	if n := solos.Load(); n != 3 {
		t.Errorf("second grid simulated %d more solos", n-3)
	}
}

func TestTable2aSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := fastRunner().Table2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 12 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := fastRunner().Run("nonesuch"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestAblateHybridSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := fastRunner().AblateDWarnHybrid()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
}

func TestTable4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tb, err := fastRunner().Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("%d policy rows", len(tb.Rows))
	}
	// Header: policy + 4 threads + Hmean.
	if len(tb.Header) != 6 {
		t.Fatalf("header %v", tb.Header)
	}
}

func TestExperimentListComplete(t *testing.T) {
	if len(Experiments) != 13 {
		t.Errorf("%d experiments registered", len(Experiments))
	}
}
