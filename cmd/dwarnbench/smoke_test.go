package main

import (
	"testing"
)

// TestWorkloadsSmoke runs every workload at a few ops with the
// correctness gate on, then one traced run, checking that each reports
// exactly the catalogue's metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	ops := map[string]int{"engine": 2, "grid": 2, "service-runs": 4, "service-sweeps": 4}
	for _, w := range workloads {
		rep, err := runWorkload(root, w, runConfig{seed: 3, ops: ops[w.name], setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted != ops[w.name] {
			t.Errorf("%s: correct %v, attempted %d, failed %d, problems %v", w.name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
		}
		checkMetricSet(t, w.name, rep.Metrics, endToEnd)
		if rep.Digest == "" {
			t.Errorf("%s: no digest", w.name)
		}
	}

	grid, _ := workloadByName("grid")
	rep, err := runWorkload(root, grid, runConfig{seed: 3, ops: 2, setups: 1, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Errorf("traced grid: problems %v", rep.Problems)
	}
	checkMetricSet(t, "traced grid", rep.Metrics, perLayer)
	if rep.Metrics["sim.runs_per_op"].Value != 18 || rep.Metrics["ckpt.warmups_per_op"].Value != 3 {
		t.Errorf("traced grid: %v runs and %v warmups per op, want 18 and 3",
			rep.Metrics["sim.runs_per_op"].Value, rep.Metrics["ckpt.warmups_per_op"].Value)
	}
}

func checkMetricSet(t *testing.T, who string, got map[string]Metric, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", who, len(got), len(want))
	}
	for _, def := range want {
		m, ok := got[def.Name]
		if !ok {
			t.Errorf("%s: missing %s", who, def.Name)
			continue
		}
		if m.Unit != def.Unit {
			t.Errorf("%s: %s unit %q, want %q", who, def.Name, m.Unit, def.Unit)
		}
	}
}
