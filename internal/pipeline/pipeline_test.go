package pipeline

import (
	"testing"
	"testing/quick"

	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// icountPolicy is a minimal in-package ICOUNT so pipeline tests do not
// import internal/core (which imports pipeline).
type icountPolicy struct{ cpu *CPU }

func (p *icountPolicy) Name() string                    { return "test-icount" }
func (p *icountPolicy) Attach(c *CPU)                   { p.cpu = c }
func (p *icountPolicy) Tick(int64)                      {}
func (p *icountPolicy) OnFetch(*DynInst, int64)         {}
func (p *icountPolicy) OnLoadAccess(*DynInst, int64)    {}
func (p *icountPolicy) OnL2Miss(*DynInst, int64)        {}
func (p *icountPolicy) OnLoadReturning(*DynInst, int64) {}
func (p *icountPolicy) OnLoadReturn(*DynInst, int64)    {}
func (p *icountPolicy) OnSquash(*DynInst, int64)        {}
func (p *icountPolicy) Reset()                          {}
func (p *icountPolicy) GateClass(int) GateClass         { return GateNormal }
func (p *icountPolicy) Params() string                  { return "" }
func (p *icountPolicy) Priority(now int64, dst []int) []int {
	type kv struct{ t, c int }
	var order []kv
	for t := 0; t < p.cpu.NumThreads(); t++ {
		order = append(order, kv{t, p.cpu.PreIssueCount(t)})
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j].c < order[i].c {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, o := range order {
		dst = append(dst, o.t)
	}
	return dst
}

// flushEverything is a hostile policy for stress tests: it flushes after
// every missing load it sees.
type flushEverything struct {
	icountPolicy
}

func (p *flushEverything) Name() string { return "test-flusher" }
func (p *flushEverything) OnLoadAccess(d *DynInst, now int64) {
	if d.MemRes.SawMiss() {
		p.cpu.FlushAfter(d)
	}
}

func newCPU(t testing.TB, wlName string, pol FetchPolicy) *CPU {
	t.Helper()
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	gens, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(config.Baseline(), pol, gens)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}

func TestSoloCommitsInstructions(t *testing.T) {
	wl := workload.Workload{Name: "solo", Threads: 1, Benchmarks: []string{"gzip"}}
	gens, _ := wl.Generators(42)
	cpu, err := New(config.Baseline(), &icountPolicy{}, gens)
	if err != nil {
		t.Fatal(err)
	}
	cpu.Run(30000)
	st := cpu.ThreadStats(0)
	if st.Committed == 0 {
		t.Fatal("nothing committed")
	}
	if ipc := st.IPC(30000); ipc < 0.2 || ipc > 8 {
		t.Fatalf("gzip solo IPC %.3f implausible", ipc)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ThreadStats {
		cpu := newCPU(t, "2-MIX", &icountPolicy{})
		cpu.Run(20000)
		return cpu.ThreadStats(1)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestInvariantsUnderICOUNT(t *testing.T) {
	cpu := newCPU(t, "4-MIX", &icountPolicy{})
	for i := 0; i < 20; i++ {
		cpu.Run(2000)
		if err := cpu.CheckInvariants(); err != nil {
			t.Fatalf("after %d cycles: %v", cpu.Now(), err)
		}
	}
}

func TestInvariantsUnderHostileFlushing(t *testing.T) {
	for _, cfg := range []*config.Processor{config.Baseline(), config.Small(), config.Deep()} {
		t.Run(cfg.Name, func(t *testing.T) {
			wl, err := workload.GetWorkload("4-MEM")
			if err != nil {
				t.Fatal(err)
			}
			gens, err := wl.Generators(42)
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := New(cfg, &flushEverything{}, gens)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20; i++ {
				cpu.Run(2000)
				if err := cpu.CheckInvariants(); err != nil {
					t.Fatalf("after %d cycles: %v", cpu.Now(), err)
				}
			}
			var flushed uint64
			for i := 0; i < cpu.NumThreads(); i++ {
				flushed += cpu.ThreadStats(i).FlushSquashed
			}
			if flushed == 0 {
				t.Error("hostile flusher never flushed on a MEM workload")
			}
		})
	}
}

// TestIssuedSlotFreesNextCycle pins when an issued entry's queue slot
// frees: at the next cycle's issue phase, not at once. With one-entry
// queues, an entry issued in cycle N holds its slot through cycle N's
// dispatch, so no queue both issues and accepts a dispatch in one
// cycle, and the slot takes a new entry from cycle N+1 on. The counts
// were recorded with the scan-based issue select that kept issued
// entries in the queue until the next cycle's compaction.
func TestIssuedSlotFreesNextCycle(t *testing.T) {
	cfg := config.Baseline()
	cfg.IntQueueSize, cfg.FPQueueSize, cfg.LSQueueSize = 1, 1, 1
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(cfg, &icountPolicy{}, gens)
	if err != nil {
		t.Fatal(err)
	}
	refilled := 0
	var prevIssued [isa.NumQueues]int
	for i := 0; i < 20000; i++ {
		cpu.Step()
		for q := range cpu.qIssued {
			if cpu.qIssued[q] > 0 && cpu.qLen[q] > 0 {
				t.Fatalf("cycle %d: queue %d issued and took a dispatch in the same cycle", cpu.Now()-1, q)
			}
			if prevIssued[q] > 0 && cpu.qLen[q] > 0 {
				refilled++
			}
		}
		prevIssued = cpu.qIssued
	}
	if refilled == 0 {
		t.Error("no slot freed by an issue took a dispatch in the next cycle")
	}
	if err := cpu.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	wantCommitted := []uint64{5917, 1574}
	wantFetched := []uint64{8463, 2447}
	for i := range wantCommitted {
		st := cpu.ThreadStats(i)
		if st.Committed != wantCommitted[i] || st.Fetched != wantFetched[i] {
			t.Errorf("t%d: committed %d fetched %d, want %d and %d",
				i, st.Committed, st.Fetched, wantCommitted[i], wantFetched[i])
		}
	}
}

func TestFetchedNeverLessThanCommitted(t *testing.T) {
	cpu := newCPU(t, "2-MEM", &icountPolicy{})
	cpu.Run(30000)
	for i := 0; i < cpu.NumThreads(); i++ {
		st := cpu.ThreadStats(i)
		if st.Committed > st.Fetched {
			t.Errorf("t%d committed %d > fetched %d", i, st.Committed, st.Fetched)
		}
	}
}

func TestResetStatsPreservesState(t *testing.T) {
	cpu := newCPU(t, "2-ILP", &icountPolicy{})
	cpu.Run(20000)
	before := cpu.ThreadStats(0).Committed
	if before == 0 {
		t.Fatal("warmup committed nothing")
	}
	cpu.ResetStats()
	if cpu.ThreadStats(0).Committed != 0 {
		t.Error("stats survived reset")
	}
	cpu.Run(5000)
	if cpu.ThreadStats(0).Committed == 0 {
		t.Error("machine wedged after ResetStats")
	}
}

func TestMissCounterReturnsToZero(t *testing.T) {
	cpu := newCPU(t, "2-MEM", &icountPolicy{})
	cpu.Run(40000)
	// In a quiescent window the in-flight counters must repeatedly
	// return to a small value: track the minimum.
	minSeen := 1 << 30
	for i := 0; i < 3000; i++ {
		cpu.Step()
		if v := cpu.L1DMissInFlight(0); v < minSeen {
			minSeen = v
		}
	}
	if minSeen > 2 {
		t.Errorf("mcf's miss counter never drained below %d (leak?)", minSeen)
	}
}

func TestRejectsTooManyThreads(t *testing.T) {
	cfg := config.Baseline()
	cfg.HardwareContexts = 2
	wl, _ := workload.GetWorkload("4-MIX")
	gens, _ := wl.Generators(42)
	if _, err := New(cfg, &icountPolicy{}, gens); err == nil {
		t.Error("4 threads on 2 contexts accepted")
	}
}

func TestRejectsNoThreads(t *testing.T) {
	if _, err := New(config.Baseline(), &icountPolicy{}, nil); err == nil {
		t.Error("zero threads accepted")
	}
}

func TestRejectsInvalidConfig(t *testing.T) {
	cfg := config.Baseline()
	cfg.FetchWidth = 0
	wl := workload.Workload{Name: "solo", Threads: 1, Benchmarks: []string{"gzip"}}
	gens, _ := wl.Generators(42)
	if _, err := New(cfg, &icountPolicy{}, gens); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSmallAndDeepMachinesRun(t *testing.T) {
	for _, cfg := range []*config.Processor{config.Small(), config.Deep()} {
		wl, _ := workload.GetWorkload("2-MIX")
		gens, _ := wl.Generators(42)
		cpu, err := New(cfg, &icountPolicy{}, gens)
		if err != nil {
			t.Fatal(err)
		}
		cpu.Run(20000)
		if cpu.ThreadStats(0).Committed == 0 && cpu.ThreadStats(1).Committed == 0 {
			t.Errorf("%s machine committed nothing", cfg.Name)
		}
		if err := cpu.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}

func TestFlushAfterRepaysFetch(t *testing.T) {
	// After a FlushAfter, the squashed correct-path instructions are
	// re-fetched: total fetched grows beyond the stream position.
	cpu := newCPU(t, "2-MEM", &flushEverything{})
	cpu.Run(30000)
	st := cpu.ThreadStats(0) // mcf
	if st.FlushSquashed == 0 {
		t.Fatal("no flushes on mcf")
	}
	if st.Fetched < st.Committed+st.FlushSquashed/2 {
		t.Errorf("fetched %d seems too low for %d flushed", st.Fetched, st.FlushSquashed)
	}
}

func TestPreIssueCountTracksOccupancy(t *testing.T) {
	cpu := newCPU(t, "4-MIX", &icountPolicy{})
	cpu.Run(10000)
	for i := 0; i < cpu.NumThreads(); i++ {
		if c := cpu.PreIssueCount(i); c < 0 || c > cpu.Config().FetchQueueSize+96 {
			t.Errorf("t%d pre-issue count %d out of range", i, c)
		}
	}
}

func TestQueueOccupancyBounded(t *testing.T) {
	cpu := newCPU(t, "8-MEM", &icountPolicy{})
	for i := 0; i < 200; i++ {
		cpu.Run(100)
		for _, q := range []isa.Queue{isa.QInt, isa.QFP, isa.QLS} {
			if n := cpu.QueueLen(q); n > 32 {
				t.Fatalf("queue %v holds %d > 32", q, n)
			}
		}
	}
}

func TestDumpStateRenders(t *testing.T) {
	cpu := newCPU(t, "2-MIX", &icountPolicy{})
	cpu.Run(1000)
	if s := cpu.DumpState(); len(s) < 20 {
		t.Errorf("dump suspiciously short: %q", s)
	}
}

func TestQuickInvariantsAcrossSeedsAndWorkloads(t *testing.T) {
	wls := []string{"2-ILP", "2-MEM", "4-MIX"}
	f := func(seed uint64, pick uint8) bool {
		wl, err := workload.GetWorkload(wls[int(pick)%len(wls)])
		if err != nil {
			return false
		}
		gens, err := wl.Generators(seed%1000 + 1)
		if err != nil {
			return false
		}
		cpu, err := New(config.Baseline(), &icountPolicy{}, gens)
		if err != nil {
			return false
		}
		cpu.Run(4000)
		return cpu.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}
