package exp

import (
	"fmt"

	"dwarn/internal/core"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
	"dwarn/internal/workload"
)

// paperPolicies are the six policies of the evaluation, in figure order.
var paperPolicies = core.PaperPolicies()

// displayName maps registry names to the paper's labels.
func displayName(p string) string { return core.MustNewPolicy(p).Name() }

// workloadSpecs lifts named workloads onto a sweep's workload axis.
func workloadSpecs(wls []workload.Workload) []spec.Workload {
	out := make([]spec.Workload, len(wls))
	for i, wl := range wls {
		out[i] = spec.Workload{Name: wl.Name}
	}
	return out
}

// Table2a regenerates Table 2(a): isolated L1/L2 load miss rates and the
// L1→L2 ratio per benchmark, next to the paper's values.
func (r *Runner) Table2a() (*Table, error) {
	names := workload.Names()
	var solos []spec.Workload
	for _, b := range names {
		solos = append(solos, spec.Workload{Solo: b})
	}
	specs, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}},
		Workloads: solos,
	})
	if err != nil {
		return nil, err
	}
	if err := r.runAll(specs); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table2a",
		Title:  "cache behaviour of isolated benchmarks (measured vs paper targets)",
		Header: []string{"bench", "type", "L1 miss", "(paper)", "L2 miss", "(paper)", "L1→L2", "(paper)", "solo IPC"},
	}
	for _, b := range names {
		p := workload.MustGet(b)
		res := r.get("baseline", "icount", "solo-"+b)
		th := res.Threads[0]
		ratio := 0.0
		if p.L1MissRate > 0 {
			ratio = p.L2MissRate / p.L1MissRate
		}
		t.Rows = append(t.Rows, []string{
			b, p.Type.String(),
			fmt.Sprintf("%.4f", th.Pipeline.CommittedL1MissRate()), fmt.Sprintf("%.4f", p.L1MissRate),
			fmt.Sprintf("%.4f", th.Pipeline.CommittedL2MissRate()), fmt.Sprintf("%.4f", p.L2MissRate),
			fmt.Sprintf("%.2f", th.Pipeline.CommittedL1ToL2Ratio()), fmt.Sprintf("%.2f", ratio),
			cell(th.IPC),
		})
	}
	t.Notes = append(t.Notes, "paper values are the synthetic generators' calibration targets (Table 2a)")
	return t, nil
}

// runPaperGrid expands and runs the paper-policies × workloads grid
// for one machine (the default policy axis is exactly the six paper
// policies). With baselines, every cell also gets its relative-IPC
// summary (see summary).
func (r *Runner) runPaperGrid(machine string, wls []workload.Workload, baselines bool) error {
	specs, err := r.grid(spec.SweepSpec{
		Machines:  []spec.Machine{{Name: machine}},
		Workloads: workloadSpecs(wls),
		Baselines: baselines,
	})
	if err != nil {
		return err
	}
	return r.runAll(specs)
}

// Fig1a regenerates Figure 1(a): absolute throughput per workload and
// policy on the baseline machine.
func (r *Runner) Fig1a() (*Table, error) {
	wls := workload.Workloads()
	if err := r.runPaperGrid("baseline", wls, false); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig1a",
		Title:  "throughput (sum of IPCs), baseline machine",
		Header: append([]string{"workload"}, policyHeaders()...),
	}
	for _, wl := range wls {
		row := []string{wl.Name}
		for _, p := range paperPolicies {
			row = append(row, cell(r.get("baseline", p, wl.Name).Throughput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func policyHeaders() []string {
	hs := make([]string, len(paperPolicies))
	for i, p := range paperPolicies {
		hs[i] = displayName(p)
	}
	return hs
}

// improvementTable builds a DWarn-over-others table from each cell's
// throughput, or with hmean from its Hmean of relative IPCs.
func (r *Runner) improvementTable(id, title, machine string, wls []workload.Workload, hmean bool) (*Table, error) {
	if err := r.runPaperGrid(machine, wls, hmean); err != nil {
		return nil, err
	}
	metric := func(policy, wl string) float64 {
		if hmean {
			return r.summary(machine, policy, wl).Hmean
		}
		return r.get(machine, policy, wl).Throughput
	}
	others := make([]string, 0, len(paperPolicies)-1)
	for _, p := range paperPolicies {
		if p != "dwarn" {
			others = append(others, p)
		}
	}
	t := &Table{ID: id, Title: title}
	t.Header = []string{"workload"}
	for _, p := range others {
		t.Header = append(t.Header, "DWarn/"+displayName(p))
	}
	sums := make([]float64, len(others))
	for _, wl := range wls {
		dw := metric("dwarn", wl.Name)
		row := []string{wl.Name}
		for i, p := range others {
			imp := stats.Improvement(dw, metric(p, wl.Name))
			sums[i] += imp
			row = append(row, pct(imp))
		}
		t.Rows = append(t.Rows, row)
	}
	avg := []string{"avg"}
	for i := range others {
		avg = append(avg, pct(sums[i]/float64(len(wls))))
	}
	t.Rows = append(t.Rows, avg)
	return t, nil
}

// Fig1b regenerates Figure 1(b): throughput improvement of DWarn over
// each policy on the baseline machine.
func (r *Runner) Fig1b() (*Table, error) {
	return r.improvementTable("fig1b", "throughput improvement of DWarn over the other policies, baseline",
		"baseline", workload.Workloads(), false)
}

// Fig2 regenerates Figure 2: instructions squashed by the FLUSH policy
// as a percentage of fetched instructions.
func (r *Runner) Fig2() (*Table, error) {
	wls := workload.Workloads()
	specs, err := r.grid(spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "flush"}},
		Workloads: workloadSpecs(wls),
	})
	if err != nil {
		return nil, err
	}
	if err := r.runAll(specs); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig2",
		Title:  "flushed instructions w.r.t. fetched instructions (FLUSH policy)",
		Header: []string{"workload", "flushed %"},
	}
	byMix := map[workload.Mix][]float64{}
	for _, wl := range wls {
		f := 100 * r.get("baseline", "flush", wl.Name).FlushedFraction()
		byMix[wl.Mix] = append(byMix[wl.Mix], f)
		t.Rows = append(t.Rows, []string{wl.Name, fmt.Sprintf("%.1f%%", f)})
	}
	for _, mix := range []workload.Mix{workload.MixILP, workload.MixMIX, workload.MixMEM} {
		t.Rows = append(t.Rows, []string{"avg-" + mix.String(), fmt.Sprintf("%.1f%%", stats.Mean(byMix[mix]))})
	}
	t.Notes = append(t.Notes, "paper reports averages of roughly 7% ILP, 2%... MIX and 35% MEM")
	return t, nil
}

// Fig3 regenerates Figure 3: Hmean improvement of DWarn over the other
// policies on the baseline machine.
func (r *Runner) Fig3() (*Table, error) {
	return r.improvementTable("fig3", "Hmean improvement of DWarn over the other policies, baseline",
		"baseline", workload.Workloads(), true)
}

// Table4 regenerates Table 4: the relative IPC of each thread in the
// 4-MIX workload under every policy, plus the Hmean.
func (r *Runner) Table4() (*Table, error) {
	wl, err := workload.GetWorkload("4-MIX")
	if err != nil {
		return nil, err
	}
	if err := r.runPaperGrid("baseline", []workload.Workload{wl}, true); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "table4",
		Title: "relative IPC of each thread in the 4-MIX workload",
	}
	t.Header = []string{"policy"}
	for _, b := range wl.Benchmarks {
		ty := workload.MustGet(b).Type
		t.Header = append(t.Header, fmt.Sprintf("%s(%s)", b, ty))
	}
	t.Header = append(t.Header, "Hmean")
	for _, p := range paperPolicies {
		sum := r.summary("baseline", p, wl.Name)
		row := []string{displayName(p)}
		for _, v := range sum.RelativeIPCs {
			row = append(row, fmt.Sprintf("%.2f", v))
		}
		row = append(row, fmt.Sprintf("%.2f", sum.Hmean))
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig4 regenerates Figure 4: throughput and Hmean improvements of DWarn
// on the smaller 4-wide 1.4-fetch machine (2- and 4-thread workloads).
func (r *Runner) Fig4() ([]*Table, error) {
	wls := workload.WorkloadsByThreads(2, 4)
	thr, err := r.improvementTable("fig4a", "throughput improvement of DWarn, small machine (4-wide, 1.4 fetch)",
		"small", wls, false)
	if err != nil {
		return nil, err
	}
	hm, err := r.improvementTable("fig4b", "Hmean improvement of DWarn, small machine (4-wide, 1.4 fetch)",
		"small", wls, true)
	if err != nil {
		return nil, err
	}
	return []*Table{thr, hm}, nil
}

// Fig5 regenerates Figure 5: throughput and Hmean improvements of DWarn
// on the deeper machine (16 stages, longer memory latencies).
func (r *Runner) Fig5() ([]*Table, error) {
	wls := workload.Workloads()
	thr, err := r.improvementTable("fig5a", "throughput improvement of DWarn, deep machine (16-stage)",
		"deep", wls, false)
	if err != nil {
		return nil, err
	}
	hm, err := r.improvementTable("fig5b", "Hmean improvement of DWarn, deep machine (16-stage)",
		"deep", wls, true)
	if err != nil {
		return nil, err
	}
	return []*Table{thr, hm}, nil
}
