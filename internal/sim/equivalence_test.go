package sim

import (
	"slices"
	"testing"

	"dwarn/internal/workload"
)

// equivWorkloads span every thread count the hybrid DWarn gate cares
// about (it acts only below 3 threads) and both workload mixes.
var equivWorkloads = []string{"2-MIX", "2-MEM", "4-MEM", "8-MIX", "8-MEM"}

// policyEquivalences relates each policy to ICOUNT, counter for counter.
// Every policy is ICOUNT order under one shared response (internal/core
// Policy.Priority), differing only in its detector, so a policy whose
// detector never leaves a thread normal must run exactly as ICOUNT does.
// A row lists the workloads where the digests must be equal; on every
// other workload of equivWorkloads they must differ.
var policyEquivalences = []struct {
	policy string
	params map[string]int64
	equal  []string
	why    string
}{
	{
		policy: "dwarn-prio", params: map[string]int64{"warn": 64}, equal: equivWorkloads,
		why: "no thread reaches 64 L1D misses in flight, so none is demoted, and DWarn-Prio never gates",
	},
	{
		policy: "dg", params: map[string]int64{"n": 64}, equal: equivWorkloads,
		why: "no thread exceeds 64 L1D misses in flight, so DG never gates",
	},
	{
		policy: "pdg", params: map[string]int64{"n": 64}, equal: equivWorkloads,
		why: "no thread exceeds 64 predicted or surprise misses; the predictor trains but never gates",
	},
	{
		policy: "dwarn", params: map[string]int64{"warn": 64}, equal: []string{"4-MEM", "8-MIX", "8-MEM"},
		why: "at 3+ threads DWarn only demotes and warn=64 never fires; below 3 threads the hybrid L2-miss gate still acts",
	},
	{
		policy: "dwarn",
		why:    "the paper's warn=1 demotes on every L1D miss",
	},
	{
		policy: "stall", params: map[string]int64{"threshold": 10_000},
		why: "the latency timer never expires, but a DTLB miss is still declared at once",
	},
	{
		policy: "flush", params: map[string]int64{"threshold": 10_000},
		why: "as STALL, and each DTLB declaration also flushes the thread",
	},
}

// soloEquivalences relates each paper policy, at its paper parameters,
// to ICOUNT on every benchmark run alone. Keep-one lists the best gated
// thread when no other thread may fetch, so for a lone thread a
// keep-one policy's gate is a no-op, and demotion reorders nothing.
// These rows are the exact reference for STALL that the multithreaded
// rows above cannot give.
var soloEquivalences = []struct {
	policy string
	equal  bool
	why    string
}{
	{"stall", true, "keep-one lists the lone gated thread, so STALL never stops its fetch"},
	{"dwarn", true, "a lone thread's demotion reorders nothing, and keep-one voids the hybrid gate"},
	{"dwarn-prio", true, "a lone thread's demotion reorders nothing"},
	{"flush", false, "keep-one keeps the thread fetching, but each declaration still squashes its younger uops"},
	{"dg", false, "DG gates strictly (no keep-one), so the lone thread stops fetching on a miss"},
	{"pdg", false, "PDG gates strictly (no keep-one), as DG does"},
}

// TestPolicyEquivalences pins policyEquivalences and soloEquivalences
// at seed 42 on a 20k-cycle warmup and a 40k-cycle measured window.
func TestPolicyEquivalences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 124 simulations")
	}
	run := func(wl workload.Workload, policy string, params map[string]int64) string {
		t.Helper()
		res, err := Run(Options{
			Policy: policy, PolicyParams: params, Workload: wl,
			Seed: 42, WarmupCycles: 20_000, MeasureCycles: 40_000,
		})
		if err != nil {
			t.Fatalf("%s %v on %s: %v", policy, params, wl.Name, err)
		}
		return res.CounterDigest()
	}
	for _, name := range equivWorkloads {
		wl, err := workload.GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		icount := run(wl, "icount", nil)
		for _, row := range policyEquivalences {
			want := slices.Contains(row.equal, name)
			if got := run(wl, row.policy, row.params) == icount; got != want {
				t.Errorf("%s %v on %s: equal to ICOUNT = %v, want %v (%s)", row.policy, row.params, name, got, want, row.why)
			}
		}
	}
	for _, bench := range workload.Names() {
		wl := SoloWorkload(bench)
		icount := run(wl, "icount", nil)
		for _, row := range soloEquivalences {
			if got := run(wl, row.policy, nil) == icount; got != row.equal {
				t.Errorf("%s on %s: equal to ICOUNT = %v, want %v (%s)", row.policy, wl.Name, got, row.equal, row.why)
			}
		}
	}
}
