package workload

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"dwarn/internal/rng"
)

// Core is one thread's calibrated program: everything about a generator
// that is fixed by its (profile, seed, base). It holds the static
// program with its calibrated load/store home regions, the region
// adjustments, the replay metadata and the walker RNG's initial state.
// Building a core costs program synthesis plus two 300k-instruction
// calibration dry runs, by far the largest part of starting a run, and
// a core is immutable. So every run of a (workload, seed) group can
// build fresh generators over the same cores; the checkpoint engine
// shares them that way.
type Core struct {
	prof       *Profile
	seed, base uint64
	prog       *program

	loadAdj, storeAdj RegionAdjust
	meta              ReplayMeta
	walkRNG           uint64
}

// dryRuns counts the calibration walks this process has run.
var dryRuns atomic.Uint64

// DryRuns returns how many calibration dry runs this process has
// walked: two per core built cold, none per core decoded from its
// Calibration.
func DryRuns() uint64 { return dryRuns.Load() }

// regionWeights returns the home-assignment weights: the far and mid
// shares of load homes, and the store shares scaled from them.
func regionWeights(prof *Profile) (farW, midW, sFarW, sMidW float64) {
	farW = prof.L2MissRate / homeFidelity
	midW = (prof.L1MissRate - prof.L2MissRate) / homeFidelity
	if farW+midW > 1 {
		s := farW + midW
		farW /= s
		midW /= s
	}
	return farW, midW, farW * prof.StoreMissScale, midW * prof.StoreMissScale
}

// synthesize builds the uncalibrated core for (prof, seed, base): the
// program text with every home region hot, the replay metadata and the
// walker RNG. It returns the program RNG positioned where calibration
// continues drawing from it.
func synthesize(prof *Profile, seed, base uint64) (*Core, *rng.Source) {
	if err := prof.Validate(); err != nil {
		panic(err)
	}
	root := rng.New(seed)
	progR := root.Split(1)
	walkR := root.Split(2)
	prog := buildProgram(prof, progR)
	starts := make([]int32, len(prog.blocks))
	for i, b := range prog.blocks {
		starts[i] = int32(b.first)
	}
	farW, midW, _, _ := regionWeights(prof)
	c := &Core{
		prof:    prof,
		seed:    seed,
		base:    base,
		prog:    prog,
		walkRNG: walkR.State(),
		meta: ReplayMeta{
			Benchmark: prof.Name,
			Base:      base,
			LoadFrac:  prof.LoadFrac, StoreFrac: prof.StoreFrac,
			BranchFrac: prof.BranchFrac, IntMulFrac: prof.IntMulFrac, FPFrac: prof.FPFrac,
			FarW: farW, MidW: midW,
			BlockStarts: starts,
		},
	}
	return c, progR
}

// buildCore runs the full deterministic construction for (prof, seed,
// base): synthesis, then calibration.
func buildCore(prof *Profile, seed, base uint64) *Core {
	c, progR := synthesize(prof, seed, base)
	farW, midW, sFarW, sMidW := regionWeights(prof)
	c.loadAdj, c.storeAdj = c.prog.assignHomes(prof, progR, farW, midW, sFarW, sMidW)
	return c
}

// Generator assembles a fresh generator over the core: walker at the
// entry block, cursors zeroed, walker RNG at its initial state.
func (c *Core) Generator() *Generator {
	g := &Generator{
		prof:     c.prof,
		prog:     c.prog,
		r:        rng.New(c.walkRNG),
		base:     c.base,
		loadAdj:  c.loadAdj,
		storeAdj: c.storeAdj,
		tNoSrc:   rng.Threshold(c.prof.NoSrcFrac),
		tTwoSrc:  rng.Threshold(c.prof.TwoSrcFrac),
		tDep:     rng.Threshold(1 / c.prof.MeanDepDist),
		meta:     c.streamMeta(),
	}
	g.walk = newWalker(c.prog)
	return g
}

// streamMeta returns the ReplayMeta of the core's correct-path streams.
func (c *Core) streamMeta() ReplayMeta {
	g := Generator{prof: c.prof, prog: c.prog, base: c.base}
	m := c.meta
	m.Footprint = g.Footprint()
	m.StartPC = g.StartPC()
	return m
}

// coreID is what makes two cores' programs, and so their streams,
// identical.
type coreID struct {
	prof              *Profile
	seed, base        uint64
	loadAdj, storeAdj RegionAdjust
}

func (c *Core) id() coreID {
	return coreID{c.prof, c.seed, c.base, c.loadAdj, c.storeAdj}
}

// ApproxBytes is the memory the core holds: its structs plus every
// materialized program slice.
func (c *Core) ApproxBytes() int {
	p := c.prog
	return int(unsafe.Sizeof(*c)+unsafe.Sizeof(*p)) +
		cap(p.insts)*int(unsafe.Sizeof(staticInst{})) +
		cap(p.blocks)*int(unsafe.Sizeof(basicBlock{})) +
		cap(p.entries)*4 + cap(c.meta.BlockStarts)*4
}

// Calibration is a core in compact form: the identity that regenerates
// its program text, a digest of that text, and what its dry runs
// decided. It is a few hundred bytes to a few KB per thread, against a
// core's hundreds of KB, and Core rebuilds the core from it without a
// dry run.
type Calibration struct {
	Benchmark  string
	Seed, Base uint64
	// Digest is the program text's digest, regions excluded: a
	// regenerated program must match it before the regions apply.
	Digest uint64
	// Regions holds the home region of every load and store slot, in
	// program order: 0 hot, 1 mid, 2 far.
	Regions     []uint8
	Load, Store RegionAdjust
}

// Calibration returns the core's compact form.
func (c *Core) Calibration() Calibration {
	cal := Calibration{
		Benchmark: c.prof.Name,
		Seed:      c.seed,
		Base:      c.base,
		Digest:    c.prog.digest(),
		Load:      c.loadAdj,
		Store:     c.storeAdj,
	}
	for i := range c.prog.insts {
		if st := &c.prog.insts[i]; st.class.IsMem() {
			cal.Regions = append(cal.Regions, st.region)
		}
	}
	return cal
}

// Core rebuilds the calibrated core: it regenerates the program from
// the registered profile and seed, checks the text against the digest,
// and applies the regions and adjustments. Any mismatch is an error;
// the caller then calibrates cold.
func (cal *Calibration) Core() (*Core, error) {
	prof, err := Get(cal.Benchmark)
	if err != nil {
		return nil, err
	}
	for _, a := range []RegionAdjust{cal.Load, cal.Store} {
		for _, p := range []float64{a.PFar, a.PMid, a.LeakFar, a.LeakMid} {
			if !(p >= 0 && p <= 1) {
				return nil, fmt.Errorf("workload: %s: region adjustment %v outside [0, 1]", cal.Benchmark, p)
			}
		}
	}
	c, _ := synthesize(prof, cal.Seed, cal.Base)
	if d := c.prog.digest(); d != cal.Digest {
		return nil, fmt.Errorf("workload: %s: program digest %016x, calibration is for %016x", cal.Benchmark, d, cal.Digest)
	}
	n := 0
	for i := range c.prog.insts {
		st := &c.prog.insts[i]
		if !st.class.IsMem() {
			continue
		}
		if n < len(cal.Regions) {
			if r := cal.Regions[n]; r > regionFar {
				return nil, fmt.Errorf("workload: %s: region value %d", cal.Benchmark, r)
			}
			st.region = cal.Regions[n]
		}
		n++
	}
	if n != len(cal.Regions) {
		return nil, fmt.Errorf("workload: %s: %d regions for %d memory slots", cal.Benchmark, len(cal.Regions), n)
	}
	c.loadAdj, c.storeAdj = cal.Load, cal.Store
	return c, nil
}

// digest hashes the program text — every slot's class, loop flag, trip
// count, bias and target, then the block table and function entries —
// leaving out the home regions calibration assigns.
func (prog *program) digest() uint64 {
	h := uint64(len(prog.insts))
	mix := func(w uint64) {
		h = (h ^ w) * 0xbf58476d1ce4e5b9
		h ^= h >> 31
	}
	for i := range prog.insts {
		st := &prog.insts[i]
		w := uint64(st.class) | uint64(st.trips)<<16 | uint64(uint32(st.target))<<32
		if st.loop {
			w |= 1 << 8
		}
		mix(w)
		mix(math.Float64bits(st.bias))
	}
	for _, b := range prog.blocks {
		mix(uint64(b.first)<<32 | uint64(b.n))
	}
	for _, e := range prog.entries {
		mix(uint64(uint32(e)))
	}
	return h
}
