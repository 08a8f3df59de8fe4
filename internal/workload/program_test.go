package workload

import (
	"testing"

	"dwarn/internal/isa"
	"dwarn/internal/rng"
)

func buildTestProgram(t *testing.T, bench string, seed uint64) *program {
	t.Helper()
	r := rng.New(seed)
	return buildProgram(MustGet(bench), r)
}

func TestEveryBlockEndsInTerminator(t *testing.T) {
	prog := buildTestProgram(t, "gzip", 1)
	for bi, b := range prog.blocks {
		last := prog.insts[b.first+b.n-1]
		if !last.class.IsBranch() {
			t.Fatalf("block %d ends in %v", bi, last.class)
		}
	}
}

func TestEveryFunctionEndsInRet(t *testing.T) {
	prog := buildTestProgram(t, "mcf", 2)
	for fi, entry := range prog.entries {
		lastBlock := int32(len(prog.blocks)) - 1
		if fi+1 < len(prog.entries) {
			lastBlock = prog.entries[fi+1] - 1
		}
		b := prog.blocks[lastBlock]
		if prog.insts[b.first+b.n-1].class != isa.Ret {
			t.Fatalf("function %d (blocks %d..%d) does not end in Ret", fi, entry, lastBlock)
		}
	}
}

func TestCallGraphIsLevelledDAG(t *testing.T) {
	prog := buildTestProgram(t, "gcc", 3)
	// Map block -> function index.
	funcOf := make([]int, len(prog.blocks))
	for fi := range prog.entries {
		lastBlock := len(prog.blocks) - 1
		if fi+1 < len(prog.entries) {
			lastBlock = int(prog.entries[fi+1]) - 1
		}
		for b := int(prog.entries[fi]); b <= lastBlock; b++ {
			funcOf[b] = fi
		}
	}
	for bi, b := range prog.blocks {
		term := prog.insts[b.first+b.n-1]
		if term.class != isa.Call {
			continue
		}
		caller := funcOf[bi]
		callee := funcOf[term.target]
		if callee <= caller {
			t.Fatalf("call from function %d to %d is not strictly downward", caller, callee)
		}
		if callee%callLevels != caller%callLevels+1 {
			t.Fatalf("call from level %d to level %d", caller%callLevels, callee%callLevels)
		}
	}
}

func TestJumpsNeverGoBackward(t *testing.T) {
	prog := buildTestProgram(t, "twolf", 4)
	for bi, b := range prog.blocks {
		term := prog.insts[b.first+b.n-1]
		if term.class == isa.Jump && term.target <= int32(bi) {
			t.Fatalf("block %d jumps backward to %d (inescapable cycle risk)", bi, term.target)
		}
	}
}

func TestLoopBackedgesGoBackward(t *testing.T) {
	prog := buildTestProgram(t, "vpr", 5)
	loops := 0
	for bi, b := range prog.blocks {
		term := prog.insts[b.first+b.n-1]
		if term.class == isa.CondBranch && term.loop {
			loops++
			if term.target >= int32(bi) {
				t.Fatalf("loop backedge at block %d targets %d (not backward)", bi, term.target)
			}
			if term.trips == 0 {
				t.Fatalf("loop at block %d has zero trips", bi)
			}
		}
	}
	if loops == 0 {
		t.Fatal("program has no loops")
	}
}

func TestDryRunDeterministic(t *testing.T) {
	prog := buildTestProgram(t, "parser", 6)
	a := prog.dryRun(rng.New(99))
	b := prog.dryRun(rng.New(99))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("dry-run counts diverge at slot %d", i)
		}
	}
}

// dryRunPerSlot is the calibration walk as first written: it bumps
// every slot of every visited block. dryRun counts block visits instead
// and must produce the same per-slot counts.
func dryRunPerSlot(prog *program, r *rng.Source) []uint32 {
	counts := make([]uint32, len(prog.insts))
	w := newWalker(prog)
	executed := 0
	for executed < dryRunLength {
		b := prog.blocks[w.cur]
		for i := 0; i < b.n; i++ {
			counts[b.first+i]++
		}
		executed += b.n
		slot := b.first + b.n - 1
		term := &prog.insts[slot]
		taken := true
		if term.class == isa.CondBranch {
			taken = w.condTaken(term, slot, r)
		}
		if term.class.IsBranch() {
			w.advance(term, taken, r)
		} else {
			w.advance(&staticInst{class: isa.IntALU}, false, r)
		}
	}
	return counts
}

func TestDryRunBlockCountsMatchPerSlot(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []uint64{1, 42} {
			prog := buildTestProgram(t, name, seed)
			want := dryRunPerSlot(prog, rng.New(seed+0xd27))
			got := prog.dryRun(rng.New(seed + 0xd27))
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d counts, want %d", name, seed, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: slot %d count %d, per-slot walk %d", name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDryRunCoversHotCode(t *testing.T) {
	prog := buildTestProgram(t, "gzip", 7)
	counts := prog.dryRun(rng.New(1))
	executed := 0
	for _, c := range counts {
		if c > 0 {
			executed++
		}
	}
	// The skewed walk should still touch a sizeable share of the text.
	if frac := float64(executed) / float64(len(counts)); frac < 0.10 {
		t.Errorf("dry run touched only %.1f%% of slots", 100*frac)
	}
}

func TestSolveAdjust(t *testing.T) {
	// Home mass above target: scale down, no leak.
	a := solveAdjust(0.4, 0.1, 0.2, 0.05)
	if a.pFar != 0.5 || a.leakFar != 0 {
		t.Errorf("over-mass far: %+v", a)
	}
	if a.pMid != 0.5 || a.leakMid != 0 {
		t.Errorf("over-mass mid: %+v", a)
	}
	// Home mass below target: full home probability plus a hot leak.
	b := solveAdjust(0.1, 0.0, 0.2, 0.0)
	if b.pFar != 1 || b.leakFar <= 0 {
		t.Errorf("under-mass: %+v", b)
	}
	// Leaks must never sum above 1.
	c := solveAdjust(0.0, 0.0, 0.9, 0.9)
	if c.leakFar+c.leakMid > 1.0001 {
		t.Errorf("leaks exceed 1: %+v", c)
	}
}

func TestWalkerDwellCapDrainsLoops(t *testing.T) {
	prog := buildTestProgram(t, "gzip", 8)
	w := newWalker(prog)
	w.dwell = maxFuncDwell + 1
	for slot, st := range prog.insts {
		if st.class == isa.CondBranch && st.loop {
			if w.condTaken(&prog.insts[slot], slot, rng.New(1)) {
				t.Fatal("loop taken past the dwell cap")
			}
			return
		}
	}
	t.Skip("no loop found")
}

func TestClassPacerHitsRates(t *testing.T) {
	p := MustGet("gzip")
	cp := newClassPacer(p)
	counts := map[isa.Class]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[cp.next()]++
	}
	bodyShare := 1 - p.BranchFrac
	wantLoads := p.LoadFrac / bodyShare
	got := float64(counts[isa.Load]) / n
	if got < wantLoads*0.98 || got > wantLoads*1.02 {
		t.Errorf("paced load rate %.4f, want %.4f", got, wantLoads)
	}
}

func TestEntryLevel0AlwaysLevelZero(t *testing.T) {
	prog := buildTestProgram(t, "eon", 9)
	r := rng.New(5)
	for i := 0; i < 200; i++ {
		e := prog.entryLevel0(r)
		// Find the function index of this entry.
		fi := -1
		for j, fe := range prog.entries {
			if fe == e {
				fi = j
				break
			}
		}
		if fi < 0 || fi%callLevels != 0 {
			t.Fatalf("restart entry %d is function %d (level %d)", e, fi, fi%callLevels)
		}
	}
}
