package core

import (
	"testing"

	"dwarn/internal/config"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

func buildCPU(t testing.TB, wlName, policy string) *pipeline.CPU {
	t.Helper()
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := pipeline.New(config.Baseline(), MustNewPolicy(policy), gens)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"dg", "dwarn", "dwarn-prio", "flush", "icount", "pdg", "stall"}
	got := Policies()
	if len(got) != len(want) {
		t.Fatalf("policies %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("policy[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestPaperPoliciesOrder(t *testing.T) {
	want := []string{"icount", "stall", "flush", "dg", "pdg", "dwarn"}
	got := PaperPolicies()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("paper policies %v", got)
		}
	}
}

func TestNewPolicyUnknown(t *testing.T) {
	if _, err := NewPolicy("nonesuch"); err == nil {
		t.Error("unknown policy constructed")
	}
}

func TestPolicyNames(t *testing.T) {
	want := map[string]string{
		"icount": "ICOUNT", "stall": "STALL", "flush": "FLUSH",
		"dg": "DG", "pdg": "PDG", "dwarn": "DWarn", "dwarn-prio": "DWarn-Prio",
	}
	for reg, name := range want {
		if got := MustNewPolicy(reg).Name(); got != name {
			t.Errorf("%s.Name() = %s, want %s", reg, got, name)
		}
	}
}

// priorityLegal checks a priority list is a duplicate-free subset of
// the thread ids.
func priorityLegal(t *testing.T, cpu *pipeline.CPU, order []int) {
	t.Helper()
	seen := map[int]bool{}
	for _, tid := range order {
		if tid < 0 || tid >= cpu.NumThreads() {
			t.Fatalf("priority contains thread %d of %d", tid, cpu.NumThreads())
		}
		if seen[tid] {
			t.Fatalf("priority lists thread %d twice: %v", tid, order)
		}
		seen[tid] = true
	}
}

func TestAllPoliciesProduceLegalPriorities(t *testing.T) {
	for _, pol := range Policies() {
		cpu := buildCPU(t, "4-MIX", pol)
		cpu.Run(5000)
		order := cpu.Policy().Priority(cpu.Now(), nil)
		priorityLegal(t, cpu, order)
	}
}

func TestAllPoliciesRunAllWorkloadSizes(t *testing.T) {
	for _, pol := range Policies() {
		for _, wn := range []string{"2-MEM", "6-MIX"} {
			cpu := buildCPU(t, wn, pol)
			cpu.Run(15000)
			total := uint64(0)
			for i := 0; i < cpu.NumThreads(); i++ {
				total += cpu.ThreadStats(i).Committed
			}
			if total == 0 {
				t.Errorf("%s on %s committed nothing", pol, wn)
			}
			if err := cpu.CheckInvariants(); err != nil {
				t.Errorf("%s on %s: %v", pol, wn, err)
			}
		}
	}
}

func TestICOUNTOrdersByOccupancy(t *testing.T) {
	cpu := buildCPU(t, "4-MIX", "icount")
	cpu.Run(8000)
	order := cpu.Policy().Priority(cpu.Now(), nil)
	if len(order) != 4 {
		t.Fatalf("ICOUNT omitted threads: %v", order)
	}
	// Ascending pre-issue counts up to the rotating tie-break: allow
	// equality but not strict inversions beyond the rotation window.
	for i := 1; i < len(order); i++ {
		a, b := cpu.PreIssueCount(order[i-1]), cpu.PreIssueCount(order[i])
		if a > b+1 {
			t.Errorf("ICOUNT order inverted: counts %d before %d (%v)", a, b, order)
		}
	}
}

func TestDGGatesMissingThreads(t *testing.T) {
	cpu := buildCPU(t, "2-MEM", "dg")
	cpu.Run(20000)
	// Sample: whenever mcf (t0) has an outstanding miss, DG must omit it.
	violations, samples := 0, 0
	for i := 0; i < 4000; i++ {
		cpu.Step()
		if cpu.L1DMissInFlight(0) > 0 {
			samples++
			for _, tid := range cpu.Policy().Priority(cpu.Now(), nil) {
				if tid == 0 {
					violations++
					break
				}
			}
		}
	}
	if samples == 0 {
		t.Fatal("mcf never had a miss outstanding")
	}
	if violations > 0 {
		t.Errorf("DG listed a missing thread in %d of %d samples", violations, samples)
	}
}

func TestDWarnDemotesButNeverOmitsAtFourThreads(t *testing.T) {
	cpu := buildCPU(t, "4-MEM", "dwarn")
	cpu.Run(20000)
	for i := 0; i < 2000; i++ {
		cpu.Step()
		order := cpu.Policy().Priority(cpu.Now(), nil)
		if len(order) != 4 {
			t.Fatalf("DWarn omitted threads at 4 threads: %v", order)
		}
		// Dmiss threads must come after Normal threads.
		lastNormal := -1
		firstDmiss := len(order)
		for pos, tid := range order {
			if cpu.L1DMissInFlight(tid) == 0 {
				lastNormal = pos
			} else if pos < firstDmiss {
				firstDmiss = pos
			}
		}
		if firstDmiss < lastNormal {
			t.Fatalf("Dmiss thread ahead of Normal thread: %v", order)
		}
	}
}

func TestDWarnReducesMEMFetchShareVsICOUNT(t *testing.T) {
	share := func(pol string) float64 {
		cpu := buildCPU(t, "2-MEM", pol)
		cpu.Run(15000)
		cpu.ResetStats()
		cpu.Run(30000)
		mcf := float64(cpu.ThreadStats(0).Fetched)
		twolf := float64(cpu.ThreadStats(1).Fetched)
		return mcf / (mcf + twolf)
	}
	ic, dw := share("icount"), share("dwarn")
	if dw >= ic {
		t.Errorf("DWarn gave mcf fetch share %.3f >= ICOUNT's %.3f", dw, ic)
	}
}

func TestFLUSHSquashesOnMEM(t *testing.T) {
	cpu := buildCPU(t, "2-MEM", "flush")
	cpu.Run(30000)
	var flushed uint64
	for i := 0; i < cpu.NumThreads(); i++ {
		flushed += cpu.ThreadStats(i).FlushSquashed
	}
	if flushed == 0 {
		t.Error("FLUSH never squashed on a MEM workload")
	}
}

func TestSTALLNeverSquashes(t *testing.T) {
	cpu := buildCPU(t, "2-MEM", "stall")
	cpu.Run(30000)
	for i := 0; i < cpu.NumThreads(); i++ {
		if f := cpu.ThreadStats(i).FlushSquashed; f != 0 {
			t.Errorf("STALL flushed %d instructions", f)
		}
	}
}

// TestKeepOneRunningSoloMEM: a keep-one policy lists a lone thread for
// fetch in every cycle, also while its detector holds it back. A lone
// gated mcf would resume once its load returned anyway, so commits
// alone do not show the rule at work; the fetch order does.
func TestKeepOneRunningSoloMEM(t *testing.T) {
	wl := workload.Workload{Name: "solo-mcf", Threads: 1, Benchmarks: []string{"mcf"}}
	for _, c := range []struct {
		pol  string
		held pipeline.GateClass // the class the detector holds mcf in
	}{
		{"stall", pipeline.GateGated},
		{"flush", pipeline.GateGated},
		{"dwarn", pipeline.GateGated},
		{"dwarn-prio", pipeline.GateDemoted},
	} {
		gens, _ := wl.Generators(42)
		pol := MustNewPolicy(c.pol)
		cpu, err := pipeline.New(config.Baseline(), pol, gens)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for i := 0; i < 30000; i++ {
			cpu.Step()
			order := pol.Priority(cpu.Now(), nil)
			if len(order) != 1 || order[0] != 0 {
				t.Fatalf("%s at cycle %d: fetch order %v, want [0] (class %v)", c.pol, cpu.Now(), order, pol.GateClass(0))
			}
			if pol.GateClass(0) == c.held {
				held++
			}
		}
		if held == 0 {
			t.Errorf("%s never held the lone mcf back (%v): the test shows nothing", c.pol, c.held)
		}
		if cpu.ThreadStats(0).Committed == 0 {
			t.Errorf("%s starved a lone mcf", c.pol)
		}
	}
}

func TestDWarnPrioNeverGates(t *testing.T) {
	cpu := buildCPU(t, "2-MEM", "dwarn-prio")
	cpu.Run(20000)
	for i := 0; i < 2000; i++ {
		cpu.Step()
		if order := cpu.Policy().Priority(cpu.Now(), nil); len(order) != 2 {
			t.Fatalf("DWarn-Prio omitted a thread: %v", order)
		}
	}
}

// TestThresholdVariantsConstruct builds default and tuned variants
// through the registry and pins their Name() and Params() renderings:
// content-addressed caches fold both into their keys.
func TestThresholdVariantsConstruct(t *testing.T) {
	for _, c := range []struct {
		reg    string
		params map[string]int64
		name   string
		want   string
	}{
		{"icount", nil, "ICOUNT", ""},
		{"stall", nil, "STALL", "threshold=15"},
		{"stall", map[string]int64{"threshold": 25}, "STALL", "threshold=25"},
		{"flush", map[string]int64{"threshold": 25}, "FLUSH", "threshold=25"},
		{"dg", nil, "DG", "n=0"},
		{"dg", map[string]int64{"n": 2}, "DG", "n=2"},
		{"pdg", map[string]int64{"n": 2}, "PDG", "n=2"},
		{"dwarn", nil, "DWarn", "hybrid=true|warn=1"},
		{"dwarn-prio", map[string]int64{"warn": 2}, "DWarn-Prio", "hybrid=false|warn=2"},
	} {
		p, err := NewPolicyParams(c.reg, c.params)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != c.name || p.Params() != c.want {
			t.Errorf("%s %v: Name %q Params %q, want %q %q", c.reg, c.params, p.Name(), p.Params(), c.name, c.want)
		}
	}
}

func TestPDGCountsStayBalanced(t *testing.T) {
	cpu := buildCPU(t, "4-MEM", "pdg")
	pdg := cpu.Policy().(*Policy).detector.(*pdg)
	cpu.Run(40000)
	for tid, c := range pdg.count {
		if c < 0 {
			t.Errorf("PDG count for t%d went negative: %d", tid, c)
		}
	}
}
