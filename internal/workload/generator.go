package workload

import (
	"fmt"
	"slices"

	"dwarn/internal/isa"
	"dwarn/internal/rng"
)

// Virtual address space layout per generator instance. Threads receive
// disjoint bases, so cross-thread interference happens only through
// shared cache capacity and set conflicts (low index bits), as on real
// SMT hardware.
const (
	codeOffset = 0x0000_0000
	hotOffset  = 0x1000_0000
	midOffset  = 0x2000_0000
	farOffset  = 0x4000_0000
	farRegion  = 1 << 30 // far stream wraps after 1 GiB (never, in practice)
	lineBytes  = 64
)

// Generator produces the correct-path instruction stream for one thread
// by walking the synthetic CFG. It is a Producer: a Stream delivers its
// uops to the pipeline and synthesizes wrong paths from its ReplayMeta.
type Generator struct {
	prof *Profile
	prog *program
	r    *rng.Source
	base uint64

	// Correct-path walker state.
	walk      *walker
	curSlot   int
	seq       uint64
	intWrites uint64
	fpWrites  uint64
	midCursor uint64
	farCursor uint64

	// Calibrated per-execution region adjustments for dynamic accesses.
	loadAdj, storeAdj RegionAdjust

	// Integer thresholds (rng.Threshold) of the per-operand draws:
	// NoSrcFrac, TwoSrcFrac, and the geometric 1/MeanDepDist.
	tNoSrc, tTwoSrc, tDep uint64

	// meta is the recordable identity of this stream: everything a
	// Stream needs to synthesize its wrong paths.
	meta ReplayMeta
}

// NewGenerator builds the synthetic benchmark prof at the given address
// base. The same (prof, seed, base) always yields the same stream.
func NewGenerator(prof *Profile, seed, base uint64) *Generator {
	return buildCore(prof, seed, base).Generator()
}

// ReplayMeta returns the metadata a trace must record so a replay
// stream reproduces this one (including wrong paths) byte-exactly.
func (g *Generator) ReplayMeta() ReplayMeta { return g.meta }

// Stream wraps the generator in the stream its pipeline thread reads.
func (g *Generator) Stream() *Stream { return NewStream(g, g.meta) }

// Profile returns the benchmark profile driving this generator.
func (g *Generator) Profile() *Profile { return g.prof }

// StartPC is the first instruction's address.
func (g *Generator) StartPC() uint64 { return g.blockPC(0) }

// blockPC returns the address of the first instruction of block b.
func (g *Generator) blockPC(b int32) uint64 {
	return g.base + codeOffset + uint64(g.prog.blocks[b].first)*4
}

// slotPC returns the address of slot s in block b.
func (g *Generator) slotPC(b, s int) uint64 {
	return g.base + codeOffset + uint64(g.prog.blocks[b].first+s)*4
}

// clone returns an independent generator at g's position. The program
// and metadata are immutable and shared; the walker and RNG are copied.
func (g *Generator) clone() *Generator {
	c := *g
	r := *g.r
	c.r = &r
	w := *g.walk
	w.trips = slices.Clone(w.trips)
	w.stack = append(make([]walkFrame, 0, 2*callLevels), w.stack...)
	c.walk = &w
	return &c
}

// rebind points g at prog, an identical copy of its program, or at nil
// between uses, so a generator kept across runs pins no run's program
// text.
func (g *Generator) rebind(prog *program) {
	g.prog, g.walk.prog = prog, prog
}

// Fill implements Producer.
func (g *Generator) Fill(buf []isa.Uop) {
	for i := range buf {
		buf[i] = g.Next()
	}
}

// Next produces the next correct-path uop. The caller must consume the
// stream strictly in fetch order; a fetch policy that squashes and
// re-fetches (FLUSH) must buffer and replay uops itself rather than
// asking the generator to rewind.
func (g *Generator) Next() isa.Uop {
	cur := g.walk.cur
	blk := g.prog.blocks[cur]
	slot := g.curSlot
	st := g.prog.insts[blk.first+slot]

	u := isa.Uop{
		Seq:   g.seq,
		PC:    g.slotPC(int(cur), slot),
		Class: st.class,
	}
	g.seq++
	g.fillOperands(&u)

	switch {
	case st.class.IsMem():
		u.Mem.Addr = g.dataAddr(st.class, st.region)
	case st.class.IsBranch():
		g.resolveBranch(&u, &g.prog.insts[blk.first+slot], blk.first+slot)
		g.curSlot = 0
		return u
	}

	// Advance within the block (every block ends in a terminator, so a
	// non-branch slot is never the last one).
	g.curSlot = slot + 1
	return u
}

// resolveBranch samples the branch outcome, fills u.Branch, and moves
// the walker to the successor block.
func (g *Generator) resolveBranch(u *isa.Uop, st *staticInst, slot int) {
	u.Branch.Taken = true
	switch st.class {
	case isa.CondBranch:
		taken := g.walk.condTaken(st, slot, g.r)
		u.Branch.Taken = taken
		u.Branch.Target = g.blockPC(st.target)
		g.walk.advance(st, taken, g.r)
	case isa.Jump, isa.Call:
		u.Branch.Target = g.blockPC(st.target)
		g.walk.advance(st, true, g.r)
	case isa.Ret:
		tgt, ok := g.walk.retTarget()
		if !ok {
			tgt = g.prog.entryLevel0(g.r)
		}
		u.Branch.Target = g.blockPC(tgt)
		g.walk.advanceTo(tgt)
	}
}

// fillOperands assigns destination and source architectural registers
// using the round-robin-writer / geometric-distance dependency model.
func (g *Generator) fillOperands(u *isa.Uop) {
	u.Dest, u.Src1, u.Src2 = isa.NoReg, isa.NoReg, isa.NoReg
	switch u.Class {
	case isa.IntALU, isa.IntMul:
		u.Src1 = g.intSrc(g.r, g.intWrites)
		if g.r.Below(g.tTwoSrc) {
			u.Src2 = g.intSrc(g.r, g.intWrites)
		}
		u.Dest = roundRobinDest(&g.intWrites)
	case isa.FPALU, isa.FPMul:
		u.Src1 = g.fpSrc(g.r, g.fpWrites)
		if g.r.Below(g.tTwoSrc) {
			u.Src2 = g.fpSrc(g.r, g.fpWrites)
		}
		u.Dest = roundRobinDest(&g.fpWrites)
	case isa.Load:
		u.Src1 = g.intSrc(g.r, g.intWrites)
		u.Dest = roundRobinDest(&g.intWrites)
	case isa.Store:
		u.Src1 = g.intSrc(g.r, g.intWrites) // data
		u.Src2 = g.intSrc(g.r, g.intWrites) // base
	case isa.CondBranch:
		u.Src1 = g.intSrc(g.r, g.intWrites)
	case isa.Ret, isa.Jump, isa.Call:
		// No register operands in the synthetic model.
	}
}

// intSrc picks a source register d writes back, d geometric with mean
// MeanDepDist; writers are round-robin so the register identifies the
// producing instruction. A NoSrcFrac share of reads are ready at rename
// (immediates, globals, long-dead values) — without them the dependence
// graph is far more serial than compiled code.
func (g *Generator) intSrc(r *rng.Source, writes uint64) isa.Reg {
	if r.Below(g.tNoSrc) {
		return isa.NoReg
	}
	d := uint64(1 + r.GeometricT(g.tDep))
	if d > 29 {
		d = 29
	}
	if d > writes {
		return isa.Reg(1 + r.Intn(30))
	}
	return isa.Reg(1 + (writes-d)%30)
}

func (g *Generator) fpSrc(r *rng.Source, writes uint64) isa.Reg {
	d := uint64(1 + r.GeometricT(g.tDep))
	if d > 29 {
		d = 29
	}
	if d > writes {
		return isa.Reg(1 + r.Intn(30))
	}
	return isa.Reg(1 + (writes-d)%30)
}

// dataAddr produces the effective address for a memory slot with the
// given home region, applying the calibrated per-execution adjustment
// (see RegionAdjust in program.go).
func (g *Generator) dataAddr(class isa.Class, home uint8) uint64 {
	adj := &g.loadAdj
	if class == isa.Store {
		adj = &g.storeAdj
	}
	region := regionHot
	switch home {
	case regionFar:
		if g.r.Bool(adj.PFar) {
			region = regionFar
		}
	case regionMid:
		if g.r.Bool(adj.PMid) {
			region = regionMid
		}
	default:
		x := g.r.Float64()
		switch {
		case x < adj.LeakFar:
			region = regionFar
		case x < adj.LeakFar+adj.LeakMid:
			region = regionMid
		}
	}
	switch region {
	case regionFar:
		addr := g.base + farOffset + g.farCursor
		g.farCursor = (g.farCursor + lineBytes) % farRegion
		return addr
	case regionMid:
		addr := g.base + midOffset + g.midCursor
		g.midCursor = (g.midCursor + lineBytes) % uint64(g.prof.MidBytes)
		return addr
	default:
		return g.base + hotOffset + hotOffsetSample(g.r, g.prof.HotBytes)
	}
}

// Footprint describes the generator's memory regions, so a simulator
// can pre-warm caches and TLBs to steady state instead of simulating
// multi-hundred-thousand-instruction cold laps of the mid ring.
type Footprint struct {
	// CodeBase/CodeBytes span the program text.
	CodeBase  uint64
	CodeBytes int
	// HotBase/HotBytes span the L1-resident data region.
	HotBase  uint64
	HotBytes int
	// MidBase/MidBytes span the L2-resident ring.
	MidBase  uint64
	MidBytes int
}

// Footprint returns the thread's memory layout.
func (g *Generator) Footprint() Footprint {
	return Footprint{
		CodeBase:  g.base + codeOffset,
		CodeBytes: len(g.prog.insts) * 4,
		HotBase:   g.base + hotOffset,
		HotBytes:  g.prof.HotBytes,
		MidBase:   g.base + midOffset,
		MidBytes:  g.prof.MidBytes,
	}
}

// DebugStaticStats summarises the static program for diagnostics.
func DebugStaticStats(g *Generator) string {
	var cond, jump, call, ret int
	for _, st := range g.prog.insts {
		switch st.class {
		case isa.CondBranch:
			cond++
		case isa.Jump:
			jump++
		case isa.Call:
			call++
		case isa.Ret:
			ret++
		}
	}
	return fmt.Sprintf("static: insts=%d blocks=%d funcs=%d cond=%d jump=%d call=%d ret=%d",
		len(g.prog.insts), len(g.prog.blocks), len(g.prog.entries), cond, jump, call, ret)
}
