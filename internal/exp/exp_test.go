package exp

import (
	"context"
	"errors"
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

func TestRunnerMemoises(t *testing.T) {
	r := fastRunner()
	specs, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.runAll(specs); err != nil {
		t.Fatal(err)
	}
	first := r.get("baseline", "icount", "2-MIX")
	if first == nil {
		t.Fatal("run not indexed")
	}
	if err := r.runAll(specs); err != nil {
		t.Fatal(err)
	}
	if second := r.get("baseline", "icount", "2-MIX"); second != first {
		t.Error("second runAll re-simulated instead of memoising")
	}
}

// TestDefaultParamsShareMemo: an ablation cell whose parameters are all
// defaults must reuse the base policy's memo entry, not re-simulate.
func TestDefaultParamsShareMemo(t *testing.T) {
	r := fastRunner()
	base, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "stall"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.runAll(base); err != nil {
		t.Fatal(err)
	}
	first := r.get("baseline", "stall", "2-MIX")

	tuned, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "stall", Params: map[string][]int64{"threshold": {15, 25}}}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.runAll(tuned); err != nil {
		t.Fatal(err)
	}
	if got := r.get("baseline", "stall", "2-MIX"); got != first {
		t.Error("threshold=15 (the default) did not share the base policy's memo entry")
	}
	if got := r.get("baseline", "stall(threshold=25)", "2-MIX"); got == nil || got == first {
		t.Error("threshold=25 not indexed as its own run")
	}
}

func TestRunSpecsTable(t *testing.T) {
	r := fastRunner()
	specs, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "dwarn", Params: map[string][]int64{"warn": {1, 2}}}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := r.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	if tb.Rows[0][5] == tb.Rows[1][5] {
		t.Error("warn=1 and warn=2 share a fingerprint")
	}
}

// TestRunSpecsSurfacesCellErrors: a failing cell renders its error in
// the generic table while its siblings still report results — the grid
// is never aborted by one bad cell.
func TestRunSpecsSurfacesCellErrors(t *testing.T) {
	r := fastRunner()
	// Swap in an executor that fails exactly the stall cell.
	r.exec = exec.New(exec.Options{Workers: 2, Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		if res.Spec.Policy.Name == "stall" {
			return nil, errors.New("injected failure")
		}
		return sim.RunContext(ctx, res.Options)
	}})

	specs, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}, {Name: "stall"}, {Name: "dwarn"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := r.RunSpecs(specs)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Header[len(tb.Header)-1]; got != "error" {
		t.Fatalf("no error column (header %v)", tb.Header)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("%d rows, want 3", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		errCol := row[len(row)-1]
		if row[1] == "stall" {
			if !strings.Contains(errCol, "injected failure") || row[4] != "-" {
				t.Fatalf("failing row %v", row)
			}
			continue
		}
		if errCol != "" || row[4] == "-" {
			t.Fatalf("sibling row must carry a result: %v", row)
		}
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
		specs, err := r.grid(spec.SweepSpec{
			Policies:  []spec.PolicyAxis{{Name: policy}},
			Workloads: wls,
			Baselines: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.runAll(specs); err != nil {
			t.Fatal(err)
		}
		for _, wl := range wls {
			if s := r.summary("baseline", policy, wl.Name); s == nil || s.Hmean <= 0 {
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
