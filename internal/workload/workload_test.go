package workload

import (
	"math"
	"testing"
	"testing/quick"

	"dwarn/internal/isa"
)

func TestProfilesValidate(t *testing.T) {
	for _, name := range Names() {
		if err := MustGet(name).Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTwelveBenchmarks(t *testing.T) {
	if len(Names()) != 12 {
		t.Fatalf("%d benchmarks, want 12 (SPECint2000)", len(Names()))
	}
}

func TestPaperClassification(t *testing.T) {
	// Table 2(a): mcf, twolf, vpr, parser are MEM; the rest ILP.
	mem := map[string]bool{"mcf": true, "twolf": true, "vpr": true, "parser": true}
	for _, name := range Names() {
		p := MustGet(name)
		if want := mem[name]; (p.Type == MEM) != want {
			t.Errorf("%s classified %v", name, p.Type)
		}
	}
}

func TestMissRatesMatchTable2a(t *testing.T) {
	cases := map[string][2]float64{
		"mcf":   {0.323, 0.296},
		"twolf": {0.058, 0.029},
		"vpr":   {0.043, 0.019},
	}
	for name, want := range cases {
		p := MustGet(name)
		if p.L1MissRate != want[0] || p.L2MissRate != want[1] {
			t.Errorf("%s rates %v/%v, want %v/%v", name, p.L1MissRate, p.L2MissRate, want[0], want[1])
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nonesuch"); err == nil {
		t.Error("unknown benchmark did not error")
	}
}

func TestRegisterRejectsInvalid(t *testing.T) {
	if err := Register(&Profile{Name: ""}); err == nil {
		t.Error("empty profile registered")
	}
}

// unregister removes a profile a test registered, so the registry
// holds exactly the paper's twelve benchmarks again (go test -count=N
// reruns TestTwelveBenchmarks in the same process).
func unregister(name string) {
	profilesMu.Lock()
	delete(profiles, name)
	profilesMu.Unlock()
}

func TestRegisterAndUse(t *testing.T) {
	p := *MustGet("gzip")
	p.Name = "testbench"
	if err := Register(&p); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unregister(p.Name) })
	if _, err := Get("testbench"); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadTableMatchesPaper(t *testing.T) {
	wls := Workloads()
	if len(wls) != 12 {
		t.Fatalf("%d workloads, want 12", len(wls))
	}
	// Spot-check Table 2(b).
	check := func(name string, want []string) {
		t.Helper()
		wl, err := GetWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(wl.Benchmarks) != len(want) {
			t.Fatalf("%s has %d benchmarks", name, len(wl.Benchmarks))
		}
		for i := range want {
			if wl.Benchmarks[i] != want[i] {
				t.Errorf("%s[%d] = %s, want %s", name, i, wl.Benchmarks[i], want[i])
			}
		}
	}
	check("2-MEM", []string{"mcf", "twolf"})
	check("4-MIX", []string{"gzip", "twolf", "bzip2", "mcf"})
	check("8-MEM", []string{"mcf", "twolf", "vpr", "parser", "mcf", "twolf", "vpr", "parser"})
	check("6-ILP", []string{"gzip", "bzip2", "eon", "gcc", "crafty", "perlbmk"})
}

func TestWorkloadsByThreads(t *testing.T) {
	wls := WorkloadsByThreads(2, 4)
	if len(wls) != 6 {
		t.Fatalf("%d workloads for 2/4 threads, want 6", len(wls))
	}
	for _, wl := range wls {
		if wl.Threads != 2 && wl.Threads != 4 {
			t.Errorf("%s has %d threads", wl.Name, wl.Threads)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	bad := Workload{Name: "x", Threads: 2, Benchmarks: []string{"gzip"}}
	if err := bad.Validate(); err == nil {
		t.Error("thread-count mismatch validated")
	}
	bad2 := Workload{Name: "x", Threads: 1, Benchmarks: []string{"nonesuch"}}
	if err := bad2.Validate(); err == nil {
		t.Error("unknown benchmark validated")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(MustGet("gzip"), 42, 1<<40)
	b := NewGenerator(MustGet("gzip"), 42, 1<<40)
	for i := 0; i < 5000; i++ {
		ua, ub := a.Next(), b.Next()
		if ua != ub {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ua, ub)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(MustGet("gzip"), 1, 1<<40)
	b := NewGenerator(MustGet("gzip"), 2, 1<<40)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next().PC == b.Next().PC {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical PC streams")
	}
}

// TestControlFlowConsistency is the core stream invariant: consecutive
// correct-path uops follow the recorded control flow exactly.
func TestControlFlowConsistency(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "eon"} {
		g := NewGenerator(MustGet(name), 7, 1<<40)
		prev := g.Next()
		for i := 0; i < 20000; i++ {
			u := g.Next()
			var wantPC uint64
			if prev.Class.IsBranch() && prev.Branch.Taken {
				wantPC = prev.Branch.Target
			} else {
				wantPC = prev.PC + 4
			}
			if u.PC != wantPC {
				t.Fatalf("%s: uop %d at %#x, want %#x (after %v taken=%v)",
					name, i, u.PC, wantPC, prev.Class, prev.Branch.Taken)
			}
			prev = u
		}
	}
}

func TestSequenceNumbersMonotonic(t *testing.T) {
	g := NewGenerator(MustGet("gzip"), 9, 1<<40)
	for i := uint64(0); i < 1000; i++ {
		if u := g.Next(); u.Seq != i {
			t.Fatalf("seq %d at position %d", u.Seq, i)
		}
	}
}

func TestSeparateSeqForWrongPath(t *testing.T) {
	g := NewGenerator(MustGet("gzip"), 9, 1<<40).Stream()
	nextUop(g)
	g.StartWrongPath(1, g.StartPC())
	wp := nextWrongUop(g)
	if !wp.WrongPath {
		t.Error("wrong-path uop not flagged")
	}
	u := nextUop(g)
	if u.Seq != 1 {
		t.Errorf("correct path advanced by wrong-path fetch: seq %d", u.Seq)
	}
}

// TestStreamReadAheadMatchesInline: a producer goroutine changes who
// fills the correct path, never what it holds. A stream reading ahead
// delivers the same uops, wrong-path PCs and wrong-path episodes as one
// filling inline, across several chunks.
func TestStreamReadAheadMatchesInline(t *testing.T) {
	for _, name := range []string{"gzip", "mcf", "eon"} {
		inline := NewGenerator(MustGet(name), 3, 1<<40).Stream()
		ahead := NewGenerator(MustGet(name), 3, 1<<40).Stream()
		ahead.ReadAhead()
		for i := 0; i < 4*chunkUops+100; i++ {
			a, b := nextUop(inline), nextUop(ahead)
			if a != b {
				t.Fatalf("%s uop %d: read-ahead %+v, inline %+v", name, i, b, a)
			}
			if i%97 != 0 {
				continue
			}
			if pa, pb := inline.WrongPathPC(&a, i%2 == 0), ahead.WrongPathPC(&b, i%2 == 0); pa != pb {
				t.Fatalf("%s uop %d: wrong-path pc %#x read-ahead, %#x inline", name, i, pb, pa)
			}
			inline.StartWrongPath(uint64(i), a.PC)
			ahead.StartWrongPath(uint64(i), b.PC)
			for j := 0; j < 5; j++ {
				if wa, wb := nextWrongUop(inline), nextWrongUop(ahead); wa != wb {
					t.Fatalf("%s uop %d wrong-path %d: read-ahead %+v, inline %+v", name, i, j, wb, wa)
				}
			}
		}
		if inline.Delivered() != ahead.Delivered() {
			t.Errorf("%s: delivered %d read-ahead, %d inline", name, ahead.Delivered(), inline.Delivered())
		}
		ahead.Stop()
	}
}

func TestWrongPathDeterministicPerEpisode(t *testing.T) {
	g := NewGenerator(MustGet("gzip"), 9, 1<<40).Stream()
	g.StartWrongPath(5, 1<<40+64)
	var first []isa.Uop
	for i := 0; i < 20; i++ {
		first = append(first, nextWrongUop(g))
	}
	g.StartWrongPath(5, 1<<40+64)
	for i := 0; i < 20; i++ {
		if got := nextWrongUop(g); got != first[i] {
			t.Fatalf("wrong-path replay diverged at %d", i)
		}
	}
}

func TestAddressesStayInRegions(t *testing.T) {
	g := NewGenerator(MustGet("mcf"), 13, 1<<40)
	const base = uint64(1) << 40
	for i := 0; i < 50000; i++ {
		u := g.Next()
		if u.Class.IsMem() {
			off := u.Mem.Addr - base
			switch {
			case off < hotOffset: // code region: data must not live here
				t.Fatalf("data access in code region: %#x", u.Mem.Addr)
			case off >= farOffset+farRegion:
				t.Fatalf("address beyond far region: %#x", u.Mem.Addr)
			}
		} else if u.PC-base >= hotOffset {
			t.Fatalf("PC outside code region: %#x", u.PC)
		}
	}
}

func TestInstructionMixNearProfile(t *testing.T) {
	p := MustGet("gzip")
	g := NewGenerator(p, 17, 1<<40)
	var loads, stores, branches, total float64
	for i := 0; i < 300000; i++ {
		u := g.Next()
		total++
		switch {
		case u.Class == isa.Load:
			loads++
		case u.Class == isa.Store:
			stores++
		case u.Class.IsBranch():
			branches++
		}
	}
	// Loop weighting makes dynamic mixes drift substantially from the
	// static profile for individual windows; these are sanity bounds,
	// not calibration checks (region calibration is tested separately).
	if r := loads / total; r < 0.03 || r > 0.5 {
		t.Errorf("load fraction %.3f out of sane range (profile %.3f)", r, p.LoadFrac)
	}
	if r := stores / total; r < 0.01 || r > 0.35 {
		t.Errorf("store fraction %.3f out of sane range (profile %.3f)", r, p.StoreFrac)
	}
	if r := branches / total; r < 0.05 || r > 0.35 {
		t.Errorf("branch fraction %.3f out of sane range", r)
	}
}

func TestFarMidCalibrationOrderOfMagnitude(t *testing.T) {
	// The two-stage calibration should land dynamic far fractions in
	// the right regime: mcf far ≈ 0.3 of loads, gzip far ≈ 0.001.
	type tc struct {
		name    string
		wantFar float64
		tol     float64 // relative
	}
	for _, c := range []tc{{"mcf", 0.296, 0.5}, {"twolf", 0.029, 0.8}} {
		g := NewGenerator(MustGet(c.name), 42, 1<<40)
		var loads, far float64
		for i := 0; i < 400000; i++ {
			u := g.Next()
			if u.Class != isa.Load {
				continue
			}
			loads++
			if u.Mem.Addr >= 1<<40+farOffset {
				far++
			}
		}
		got := far / loads
		if math.Abs(got-c.wantFar) > c.tol*c.wantFar {
			t.Errorf("%s dynamic far fraction %.4f, want %.4f ± %.0f%%", c.name, got, c.wantFar, 100*c.tol)
		}
	}
}

func TestRegistersInRange(t *testing.T) {
	g := NewGenerator(MustGet("eon"), 19, 1<<40)
	for i := 0; i < 20000; i++ {
		u := g.Next()
		for _, r := range []isa.Reg{u.Dest, u.Src1, u.Src2} {
			if r != isa.NoReg && (r < 0 || r >= isa.NumIntRegs) {
				t.Fatalf("register %d out of range on %v", r, u.Class)
			}
		}
		if u.Class.IsBranch() && u.Dest != isa.NoReg {
			t.Fatalf("branch with destination register")
		}
		if u.Class == isa.Store && u.Dest != isa.NoReg {
			t.Fatalf("store with destination register")
		}
	}
}

func TestFootprint(t *testing.T) {
	g := NewGenerator(MustGet("gzip"), 21, 1<<40)
	fp := g.Footprint()
	p := MustGet("gzip")
	if fp.HotBytes != p.HotBytes || fp.MidBytes != p.MidBytes {
		t.Errorf("footprint %+v does not match profile", fp)
	}
	if fp.CodeBase != 1<<40 {
		t.Errorf("code base %#x", fp.CodeBase)
	}
	if fp.CodeBytes < p.CodeBytes || fp.CodeBytes > p.CodeBytes+4096 {
		t.Errorf("code bytes %d vs profile %d", fp.CodeBytes, p.CodeBytes)
	}
}

func TestGeneratorsDistinctBases(t *testing.T) {
	wl, err := GetWorkload("4-MIX")
	if err != nil {
		t.Fatal(err)
	}
	gens, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, g := range gens {
		b := g.Footprint().CodeBase
		if seen[b] {
			t.Errorf("duplicate base %#x", b)
		}
		seen[b] = true
	}
}

func TestReplicatedInstancesDephased(t *testing.T) {
	wl, _ := GetWorkload("6-MEM") // mcf appears twice
	gens, _ := wl.Generators(42)
	a, b := gens[0], gens[4] // both mcf
	same := 0
	for i := 0; i < 1000; i++ {
		ua, ub := nextUop(a), nextUop(b)
		if ua.Class == ub.Class {
			same++
		}
	}
	if same == 1000 {
		t.Error("replicated instances generate identical streams")
	}
}

func TestQuickGeneratorNeverPanics(t *testing.T) {
	f := func(seed uint64, pick uint8) bool {
		names := Names()
		g := NewGenerator(MustGet(names[int(pick)%len(names)]), seed, 1<<40).Stream()
		for i := 0; i < 2000; i++ {
			nextUop(g)
		}
		g.StartWrongPath(seed, g.StartPC())
		for i := 0; i < 200; i++ {
			nextWrongUop(g)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratorsConcurrentBuildDeterministic: the per-thread builds run
// concurrently, yet every slot must hold its own benchmark's stream,
// identical across calls and between fresh cores and shared ones.
func TestGeneratorsConcurrentBuildDeterministic(t *testing.T) {
	wl, err := GetWorkload("8-MEM")
	if err != nil {
		t.Fatal(err)
	}
	a, err := wl.Generators(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wl.Generators(7)
	if err != nil {
		t.Fatal(err)
	}
	cores, err := wl.Cores(7)
	if err != nil {
		t.Fatal(err)
	}
	s, s2 := Streams(cores), Streams(cores)
	for i, name := range wl.Benchmarks {
		if got := a[i].ReplayMeta().Benchmark; got != name {
			t.Fatalf("slot %d holds %s, want %s", i, got, name)
		}
		for n := 0; n < 500; n++ {
			ua, ub, us, us2 := nextUop(a[i]), nextUop(b[i]), nextUop(s[i]), nextUop(s2[i])
			if ua != ub || ua != us || ua != us2 {
				t.Fatalf("slot %d uop %d differs between builds", i, n)
			}
		}
	}
}

// nextUop and nextWrongUop return a stream's next correct-path and
// wrong-path uop.
func nextUop(s *Stream) (u isa.Uop) {
	s.Next(&u)
	return u
}

func nextWrongUop(s *Stream) (u isa.Uop) {
	s.NextWrongPath(&u)
	return u
}

// TestPathTrackerMatchesGenerator: the state a stream derives from the
// uops it delivered, summed and reduced only when an episode starts,
// equals the generator's own writer counters and region cursors after
// every uop, for every profile.
func TestPathTrackerMatchesGenerator(t *testing.T) {
	for _, name := range Names() {
		g := NewGenerator(MustGet(name), 5, 1<<40)
		meta := g.ReplayMeta()
		var tr pathTracker
		for i := 0; i < 3*chunkUops; i++ {
			u := g.Next()
			meta.track(&tr, &u)
			want := WrongPathState{IntWrites: g.intWrites, FPWrites: g.fpWrites, FarCursor: g.farCursor, MidCursor: g.midCursor}
			if got := meta.state(&tr); got != want {
				t.Fatalf("%s uop %d (%v): tracked %+v, generator %+v", name, i, u.Class, got, want)
			}
		}
	}
}
