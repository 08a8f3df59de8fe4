package exp

import (
	"fmt"

	"dwarn/internal/core"
	"dwarn/internal/spec"
)

// The ablation studies are parameter sweeps, and they are expressed the
// way every other frontend expresses them: as spec grids over the
// policy registry's declared parameters. A cell whose parameters are
// all defaults shares its fingerprint — and therefore its memo entry —
// with the paper-grid runs of the base policy.

// ablationID is the row/column key of a parameterised cell, identical
// to the canonical id the spec fingerprint uses.
func ablationID(policy, param string, v int64) string {
	return core.PolicyID(policy, map[string]int64{param: v})
}

// paramSweep runs the policy axes over the workloads on the baseline
// machine.
func (r *Runner) paramSweep(policies []spec.PolicyAxis, wls []string) (grid, error) {
	var axis []spec.Workload
	for _, wn := range wls {
		axis = append(axis, spec.Workload{Name: wn})
	}
	return r.run(spec.SweepSpec{
		Policies:  policies,
		Workloads: axis,
	})
}

// AblateL2Threshold sweeps the cycle threshold at which STALL and FLUSH
// declare a load an L2 miss. The paper tuned this parameter and found
// 15 best for the baseline machine (§5).
func (r *Runner) AblateL2Threshold() (*Table, error) {
	thresholds := []int64{5, 10, 15, 25, 40}
	wls := []string{"2-MEM", "4-MIX", "4-MEM"}
	g, err := r.paramSweep([]spec.PolicyAxis{
		{Name: "stall", Params: map[string][]int64{"threshold": thresholds}},
		{Name: "flush", Params: map[string][]int64{"threshold": thresholds}},
	}, wls)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablate-threshold",
		Title:  "STALL/FLUSH throughput vs L2-declaration threshold (paper uses 15)",
		Header: []string{"workload", "policy"},
	}
	for _, th := range thresholds {
		t.Header = append(t.Header, fmt.Sprintf("t=%d", th))
	}
	for _, wn := range wls {
		for _, pol := range []string{"stall", "flush"} {
			row := []string{wn, pol}
			for _, th := range thresholds {
				row = append(row, cell(g.at("baseline", ablationID(pol, "threshold", th), wn, r.cfg.Seed).Result.Throughput))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// AblateDGThreshold sweeps DG's outstanding-miss gate threshold n; the
// paper (following El-Moursy & Albonesi) uses n = 0.
func (r *Runner) AblateDGThreshold() (*Table, error) {
	ns := []int64{0, 1, 2, 4}
	wls := []string{"2-MEM", "4-MEM", "8-MEM"}
	g, err := r.paramSweep([]spec.PolicyAxis{
		{Name: "dg", Params: map[string][]int64{"n": ns}},
	}, wls)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablate-dg",
		Title:  "DG throughput vs gate threshold n (paper uses n=0)",
		Header: []string{"workload"},
	}
	for _, n := range ns {
		t.Header = append(t.Header, fmt.Sprintf("n=%d", n))
	}
	for _, wn := range wls {
		row := []string{wn}
		for _, n := range ns {
			row = append(row, cell(g.at("baseline", ablationID("dg", "n", n), wn, r.cfg.Seed).Result.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// AblateDWarnWarn sweeps DWarn's warn threshold: the in-flight L1
// data-miss count at which a thread drops to the Dmiss group. The paper
// demotes on the first miss (warn = 1); higher values tolerate short
// miss bursts and show how much of DWarn's gain comes from reacting to
// the earliest warning signal.
func (r *Runner) AblateDWarnWarn() (*Table, error) {
	warns := []int64{1, 2, 4}
	wls := []string{"2-MEM", "4-MIX", "4-MEM"}
	g, err := r.paramSweep([]spec.PolicyAxis{
		{Name: "dwarn", Params: map[string][]int64{"warn": warns}},
	}, wls)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablate-dwarn-warn",
		Title:  "DWarn throughput vs warn threshold (paper demotes on the first in-flight miss)",
		Header: []string{"workload"},
	}
	for _, wn := range warns {
		t.Header = append(t.Header, fmt.Sprintf("warn=%d", wn))
	}
	for _, wn := range wls {
		row := []string{wn}
		for _, v := range warns {
			row = append(row, cell(g.at("baseline", ablationID("dwarn", "warn", v), wn, r.cfg.Seed).Result.Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, "warn=1 is the paper's DWarn; higher thresholds delay the priority response")
	return t, nil
}

// AblateDWarnHybrid compares full DWarn against the prioritisation-only
// variant. The paper motivates the hybrid gate with the 2-thread case:
// priority reduction alone cannot keep a Dmiss thread out of a 2.8
// fetch engine's spare slots.
func (r *Runner) AblateDWarnHybrid() (*Table, error) {
	wls := []string{"2-ILP", "2-MIX", "2-MEM", "4-MIX", "4-MEM"}
	g, err := r.paramSweep([]spec.PolicyAxis{
		{Name: "dwarn"},
		{Name: "dwarn-prio"},
	}, wls)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablate-hybrid",
		Title:  "DWarn hybrid gate vs prioritisation only (throughput)",
		Header: []string{"workload", "DWarn", "DWarn-Prio", "hybrid gain"},
	}
	for _, wn := range wls {
		full := g.at("baseline", "dwarn", wn, r.cfg.Seed).Result.Throughput
		prio := g.at("baseline", "dwarn-prio", wn, r.cfg.Seed).Result.Throughput
		t.Rows = append(t.Rows, []string{wn, cell(full), cell(prio), pct(100 * (full - prio) / prio)})
	}
	t.Notes = append(t.Notes, "the gate only engages below three threads; 4-thread rows should show ~no difference")
	return t, nil
}
