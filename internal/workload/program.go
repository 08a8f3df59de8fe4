package workload

import (
	"slices"

	"dwarn/internal/isa"
	"dwarn/internal/rng"
)

// Memory region classes for load/store home assignment.
const (
	regionHot uint8 = iota
	regionMid
	regionFar
)

// staticInst is one instruction slot in the synthetic program text.
type staticInst struct {
	class isa.Class
	// region is the home memory region for loads and stores.
	region uint8
	// loop marks trip-counted backedges: the walker runs the loop for
	// (approximately) trips iterations per entry instead of sampling
	// i.i.d. outcomes, bounding loop dwell. A stable per-slot trip count
	// also makes loop exits learnable by gshare, as real loops are.
	loop  bool
	trips uint8
	// bias is P(taken) for non-loop conditional branches.
	bias float64
	// target is the destination block index for taken branches, jumps
	// and calls.
	target int32
}

// basicBlock is a run of instructions ending in a terminator.
type basicBlock struct {
	first int // index of the first slot in prog.insts
	n     int // number of slots
}

// program is the synthetic static code for one benchmark: functions made
// of basic blocks over a linear code layout. Control flow is local —
// conditional branches jump within their function (loop backedges are
// taken-biased), calls target function entries with a hot-set skew —
// which gives the I-cache, BTB, and gshare realistic locality to
// exploit, as compiled SPECint code does.
//
// Two properties matter for calibration and are enforced structurally:
//
//  1. The instruction mix is *paced*: classes are placed with Bresenham
//     accumulators rather than sampled independently per slot, so any
//     loop the walker dwells in executes approximately the global mix.
//  2. Memory home regions are assigned *after* a dry-run of the walker
//     measures each slot's dynamic execution frequency, via sequential
//     proportional fitting, so the dynamic far/mid access fractions hit
//     the Table 2(a) targets regardless of which loops are hot.
type program struct {
	insts   []staticInst
	blocks  []basicBlock
	entries []int32 // function entry blocks, callable
}

// Terminator mix among non-final blocks of a function. Every function's
// last block returns, which keeps calls and returns balanced for the
// walker and the return address stack.
const (
	condFrac = 0.80
	jumpFrac = 0.08
	// callFrac is the remainder (~0.12).
)

// callLevels stratifies the call DAG: function f sits at level f %
// callLevels and calls only functions one level deeper; leaf-level
// functions make no calls. Bounded depth keeps the walk's call tree
// small, so dynamic slot frequencies mix quickly and the dry-run
// calibration transfers to the measured run.
const callLevels = 4

// homeFidelity is the probability a memory slot accesses its home region
// on a given execution (the remainder go to the hot region). Values
// below 1 give the PDG miss predictor a realistic error rate.
const homeFidelity = 0.85

// backwardFrac is the fraction of conditional branches that are loop
// backedges; meanLoopTrips is the mean trip count the walker draws per
// loop entry.
const (
	backwardFrac  = 0.30
	meanLoopTrips = 9.0
	maxLoopTrips  = 32
)

// classPacer places instruction classes at their exact global rates
// using error accumulators (Bresenham's algorithm over the mix).
type classPacer struct {
	weights [5]float64 // load, store, mul, fp, alu
	errs    [5]float64
}

func newClassPacer(p *Profile) *classPacer {
	bodyShare := 1 - p.BranchFrac
	cp := &classPacer{}
	cp.weights[0] = p.LoadFrac / bodyShare
	cp.weights[1] = p.StoreFrac / bodyShare
	cp.weights[2] = p.IntMulFrac / bodyShare
	cp.weights[3] = p.FPFrac / bodyShare
	sum := cp.weights[0] + cp.weights[1] + cp.weights[2] + cp.weights[3]
	cp.weights[4] = 1 - sum
	if cp.weights[4] < 0 {
		cp.weights[4] = 0
	}
	return cp
}

// next returns the class of the next body slot: the class with the
// highest accumulated deficit.
func (cp *classPacer) next() isa.Class {
	best := 4
	for i := range cp.errs {
		cp.errs[i] += cp.weights[i]
		if cp.errs[i] > cp.errs[best] {
			best = i
		}
	}
	cp.errs[best] -= 1
	switch best {
	case 0:
		return isa.Load
	case 1:
		return isa.Store
	case 2:
		return isa.IntMul
	case 3:
		return isa.FPALU
	default:
		return isa.IntALU
	}
}

// buildProgram synthesises the static code for p using r. Home regions
// are left as regionHot; assignHomes calibrates them afterwards.
func buildProgram(p *Profile, r *rng.Source) *program {
	meanBlock := 1.0 / p.BranchFrac
	if meanBlock < 2 {
		meanBlock = 2
	}
	nInsts := p.CodeBytes / 4
	prog := &program{
		insts:  make([]staticInst, 0, nInsts),
		blocks: make([]basicBlock, 0, int(float64(nInsts)/meanBlock)+1),
	}
	pacer := newClassPacer(p)
	for len(prog.insts) < nInsts {
		buildFunction(p, r, prog, meanBlock, pacer)
	}
	prog.patchCalls(r)
	return prog
}

// buildFunction appends one function: a geometric number of basic
// blocks, the last of which returns.
func buildFunction(p *Profile, r *rng.Source, prog *program, meanBlock float64, pacer *classPacer) {
	nBlocks := 3 + r.Geometric(1.0/10)
	if nBlocks > 48 {
		nBlocks = 48
	}
	f0 := int32(len(prog.blocks))
	f1 := f0 + int32(nBlocks) // exclusive
	prog.entries = append(prog.entries, f0)

	for b := int32(0); b < int32(nBlocks); b++ {
		blockLen := 1 + r.Geometric(1/meanBlock)
		if blockLen > 24 {
			blockLen = 24
		}
		first := len(prog.insts)
		for i := 0; i < blockLen-1; i++ {
			cls := pacer.next()
			// FP work comes in ALU/MUL pairs half the time.
			if cls == isa.FPALU && r.Bool(0.5) {
				cls = isa.FPMul
			}
			prog.insts = append(prog.insts, staticInst{class: cls})
		}
		cur := f0 + b
		var term staticInst
		if b == 1 && nBlocks > 3 && r.Bool(0.7) {
			// A call site on the entry path: most function visits make
			// at least one call, so returns usually match a real frame
			// (unmatched returns always mispredict the RAS).
			term = staticInst{class: isa.Call, bias: 1, target: -1}
		} else {
			term = makeTerminator(p, r, cur, f0, f1, b == int32(nBlocks)-1)
		}
		prog.insts = append(prog.insts, term)
		prog.blocks = append(prog.blocks, basicBlock{first: first, n: blockLen})
	}
}

// makeTerminator creates the control-flow instruction ending block cur
// of the function spanning blocks [f0, f1).
func makeTerminator(p *Profile, r *rng.Source, cur, f0, f1 int32, last bool) staticInst {
	if last {
		return staticInst{class: isa.Ret, bias: 1}
	}
	x := r.Float64()
	switch {
	case x < condFrac:
		inst := staticInst{class: isa.CondBranch}
		// Loop backedges need a strictly earlier target; the function's
		// first block has none, so it only gets forward branches.
		if cur > f0 && r.Bool(backwardFrac) {
			inst.loop = true
			trips := 4 + r.Geometric(1/(meanLoopTrips-4))
			if trips > maxLoopTrips {
				trips = maxLoopTrips
			}
			inst.trips = uint8(trips)
			inst.target = clampInt32(cur-1-int32(r.Geometric(0.4)), f0, cur-1)
			return inst
		}
		// Forward skips stop short of the return block so call sites
		// do not get leapfrogged out of the dynamic mix.
		hi := f1 - 2
		if hi <= cur {
			hi = f1 - 1
		}
		inst.target = clampInt32(cur+2+int32(r.Geometric(0.4)), cur+1, hi)
		switch {
		case r.Bool(p.HardBranchFrac):
			inst.bias = 0.3 + 0.4*r.Float64() // near-random: gshare struggles
		case r.Bool(p.TakenBias):
			inst.bias = 0.97
		default:
			inst.bias = 0.03
		}
		return inst
	case x < condFrac+jumpFrac:
		// Unconditional forward jump within the function. Forward-only
		// (a backward unconditional jump could close an inescapable
		// cycle) and short of the return block when possible, so call
		// sites keep executing.
		hi := f1 - 2
		if hi <= cur {
			hi = f1 - 1
		}
		tgt := clampInt32(cur+1+int32(r.Geometric(0.4)), cur+1, hi)
		return staticInst{class: isa.Jump, bias: 1, target: tgt}
	default:
		// Call target is patched once all functions exist.
		return staticInst{class: isa.Call, bias: 1, target: -1}
	}
}

func clampInt32(v, lo, hi int32) int32 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// patchCalls assigns call targets. The call graph is a levelled DAG:
// function f (level f % callLevels) calls only functions at the next
// level, preferring nearby ones (call-graph locality); leaf-level
// callers degrade to jumps. Every call chain terminates within
// callLevels returns, so the walker's call trees stay small and its
// visit frequencies mix quickly — calibration depends on that.
func (prog *program) patchCalls(r *rng.Source) {
	nFuncs := len(prog.entries)
	for f := 0; f < nFuncs; f++ {
		firstBlock := prog.entries[f]
		lastBlock := int32(len(prog.blocks)) - 1
		if f+1 < nFuncs {
			lastBlock = prog.entries[f+1] - 1
		}
		level := f % callLevels
		// Candidate callees: next-level functions, nearest first.
		var callees []int32
		if level < callLevels-1 {
			for g := f + 1; g < nFuncs && len(callees) < 8; g++ {
				if g%callLevels == level+1 {
					callees = append(callees, prog.entries[g])
				}
			}
		}
		for b := firstBlock; b <= lastBlock; b++ {
			blk := prog.blocks[b]
			st := &prog.insts[blk.first+blk.n-1]
			if st.class != isa.Call {
				continue
			}
			if len(callees) == 0 {
				// Leaf level (or no next-level function exists): the
				// call degrades to a jump to the next block, keeping
				// control flow moving without touching the return block.
				st.class = isa.Jump
				if b < lastBlock {
					st.target = b + 1
				} else {
					st.target = lastBlock
				}
				continue
			}
			// Mostly the nearest couple of callees, occasionally any.
			span := 2
			if span > len(callees) {
				span = len(callees)
			}
			if !r.Bool(0.85) {
				span = len(callees)
			}
			st.target = callees[r.Intn(span)]
		}
	}
}

// entryLevel0 returns a level-0 function entry; both walkers restart
// there when the call stack runs dry. The choice is skewed towards the
// first few level-0 functions — programs have main loops — which keeps
// the hot branch and I-cache working sets realistic.
func (prog *program) entryLevel0(r *rng.Source) int32 {
	n := (len(prog.entries) + callLevels - 1) / callLevels
	k := r.Geometric(1.0 / 1.8)
	if k >= n {
		k = r.Intn(n)
	}
	idx := callLevels * k
	if idx >= len(prog.entries) {
		idx = 0
	}
	return prog.entries[idx]
}

// dryRunLength is the number of instructions the calibration walk
// executes to estimate per-slot dynamic frequencies.
const dryRunLength = 300_000

// RegionAdjust holds the per-execution region probabilities that map
// home assignments onto the Table 2(a) dynamic targets. PFar/PMid are
// the probabilities that a far-/mid-home slot accesses its home region
// (otherwise it goes hot); LeakFar/LeakMid route a fraction of hot-home
// executions to far/mid when the home population alone cannot reach the
// target.
type RegionAdjust struct {
	PFar, PMid       float64
	LeakFar, LeakMid float64
}

// solveAdjust computes the adjustment given realized home-mass fractions
// (fFar, fMid of all executions of the class) and dynamic targets: the
// home population covers as much of the target as it can; any remainder
// leaks from hot-home executions.
func solveAdjust(fFar, fMid, targetFar, targetMid float64) RegionAdjust {
	a := RegionAdjust{PFar: 1, PMid: 1}
	fHot := 1 - fFar - fMid
	if fHot < 1e-9 {
		fHot = 1e-9
	}
	if fFar > 0 && targetFar < fFar {
		a.PFar = targetFar / fFar
	} else if fFar < targetFar {
		a.LeakFar = (targetFar - fFar) / fHot
	}
	if fMid > 0 && targetMid < fMid {
		a.PMid = targetMid / fMid
	} else if fMid < targetMid {
		a.LeakMid = (targetMid - fMid) / fHot
	}
	if a.LeakFar+a.LeakMid > 1 {
		s := a.LeakFar + a.LeakMid
		a.LeakFar /= s
		a.LeakMid /= s
	}
	return a
}

// assignHomes calibrates load/store home regions. One dry run measures
// per-slot dynamic frequencies; sequential proportional fitting assigns
// far/mid homes against those frequencies; a second, independent dry
// run then measures the realized home mass and solveAdjust closes the
// residual gap with per-execution probabilities. Returns the load and
// store adjustments the generator must apply.
func (prog *program) assignHomes(p *Profile, r *rng.Source, farW, midW, sFarW, sMidW float64) (loadAdj, storeAdj RegionAdjust) {
	counts := prog.dryRun(r.Split(0xd27))
	fit(prog, counts, r, isa.Load, farW, midW)
	fit(prog, counts, r, isa.Store, sFarW, sMidW)

	verify := prog.dryRun(r.Split(0x5eed))
	fFar, fMid := homeMass(prog, verify, isa.Load)
	sFarM, sMidM := homeMass(prog, verify, isa.Store)
	loadAdj = solveAdjust(fFar, fMid, p.L2MissRate, p.L1MissRate-p.L2MissRate)
	storeAdj = solveAdjust(sFarM, sMidM,
		p.L2MissRate*p.StoreMissScale, (p.L1MissRate-p.L2MissRate)*p.StoreMissScale)
	return loadAdj, storeAdj
}

// homeMass returns the fractions of class executions (per the count
// vector) whose slot is far-/mid-home.
func homeMass(prog *program, counts []uint32, class isa.Class) (fFar, fMid float64) {
	var far, mid, all float64
	for i := range prog.insts {
		if prog.insts[i].class != class {
			continue
		}
		c := float64(counts[i]) + 1
		all += c
		switch prog.insts[i].region {
		case regionFar:
			far += c
		case regionMid:
			mid += c
		}
	}
	if all == 0 {
		return 0, 0
	}
	return far / all, mid / all
}

// fit assigns home regions to all slots of one class.
func fit(prog *program, counts []uint32, r *rng.Source, class isa.Class, farW, midW float64) {
	// One key per slot: the count complemented in the high word, the
	// index in the low one, so ascending keys put the hottest slot first
	// and break ties by index. Proportional fitting processes hottest
	// first so it can correct early overshoot with the long tail of
	// cold slots.
	var keys []uint64
	var total float64
	for i := range prog.insts {
		if prog.insts[i].class != class {
			continue
		}
		keys = append(keys, uint64(^counts[i])<<32|uint64(i))
		// +1 smoothing gives never-executed slots a home too.
		total += float64(counts[i]) + 1
	}
	if len(keys) == 0 {
		return
	}
	slices.Sort(keys)
	remFar := farW * total
	remMid := midW * total
	remTotal := total
	for _, k := range keys {
		st := &prog.insts[uint32(k)]
		c := float64(^uint32(k>>32)) + 1
		x := r.Float64() * remTotal
		switch {
		case x < remFar:
			st.region = regionFar
			remFar -= c
			if remFar < 0 {
				remFar = 0
			}
		case x < remFar+remMid:
			st.region = regionMid
			remMid -= c
			if remMid < 0 {
				remMid = 0
			}
		default:
			st.region = regionHot
		}
		remTotal -= c
	}
}

// maxFuncDwell is the block-execution budget per function visit. Once a
// visit exceeds it, loop backedges drain (fall through), bounding dwell:
// chained trip-counted loops otherwise compound into heavy-tailed visits
// that break the ergodicity the calibration relies on.
const maxFuncDwell = 128

// walker executes the CFG. Exactly the same code drives the calibration
// dry runs and the generator's correct path, so their visit statistics
// agree by construction.
type walker struct {
	prog  *program
	cur   int32 // current block
	dwell int32 // blocks executed in the current function visit
	// remaining trip counts per backedge slot; -1 = loop inactive.
	trips []int32
	stack []walkFrame
}

type walkFrame struct {
	ret   int32
	dwell int32
}

func newWalker(prog *program) *walker {
	w := &walker{
		prog:  prog,
		trips: make([]int32, len(prog.insts)),
		// Sized to its bound up front, so calls never grow it.
		stack: make([]walkFrame, 0, 2*callLevels),
	}
	for i := range w.trips {
		w.trips[i] = -1
	}
	return w
}

// condTaken decides a conditional branch at slot, advancing loop state.
func (w *walker) condTaken(st *staticInst, slot int, r *rng.Source) bool {
	if !st.loop {
		return r.Bool(st.bias)
	}
	if w.dwell > maxFuncDwell {
		w.trips[slot] = -1
		return false // drain: the visit has outstayed its budget
	}
	rem := w.trips[slot]
	if rem < 0 {
		// The slot's base trip count with occasional ±1 jitter: mostly
		// learnable, not perfectly so.
		rem = int32(st.trips)
		switch x := r.Float64(); {
		case x < 0.10 && rem > 1:
			rem--
		case x > 0.90:
			rem++
		}
	}
	if rem > 0 {
		w.trips[slot] = rem - 1
		return true
	}
	w.trips[slot] = -1
	return false
}

// advance moves past the terminator of the current block given its
// taken decision, returning the next block.
func (w *walker) advance(st *staticInst, taken bool, r *rng.Source) int32 {
	next := w.cur + 1
	if next == int32(len(w.prog.blocks)) {
		next = 0
	}
	switch st.class {
	case isa.CondBranch:
		if taken {
			next = st.target
		}
	case isa.Jump:
		next = st.target
	case isa.Call:
		if len(w.stack) < 2*callLevels {
			w.stack = append(w.stack, walkFrame{ret: next, dwell: w.dwell})
		}
		w.dwell = 0
		next = st.target
	case isa.Ret:
		if n := len(w.stack); n > 0 {
			next = w.stack[n-1].ret
			w.dwell = w.stack[n-1].dwell
			w.stack = w.stack[:n-1]
		} else {
			next = w.prog.entryLevel0(r)
			w.dwell = 0
		}
	}
	w.cur = next
	w.dwell++
	return next
}

// retTarget previews where a Ret will go without moving the walker or
// drawing randomness; ok is false when the stack is empty (the caller
// picks a restart entry and passes it through advanceTo).
func (w *walker) retTarget() (int32, bool) {
	if n := len(w.stack); n > 0 {
		return w.stack[n-1].ret, true
	}
	return -1, false
}

// advanceTo is advance for a Ret whose restart target was already chosen
// by the caller (keeps the uop's recorded target and the walker's move
// consistent).
func (w *walker) advanceTo(target int32) {
	if n := len(w.stack); n > 0 {
		w.dwell = w.stack[n-1].dwell
		w.stack = w.stack[:n-1]
	} else {
		w.dwell = 0
	}
	w.cur = target
	w.dwell++
}

// dryTerm is one block in the dry run's compact table: its length and
// its terminator, with a non-loop conditional branch's bias as the
// threshold Below draws against.
type dryTerm struct {
	n      int32
	target int32
	thresh uint64 // rng.Threshold(bias) for non-loop conditional branches
	class  isa.Class
	loop   bool
	trips  uint8
}

// dryRun walks the CFG for dryRunLength instructions, returning per-slot
// execution counts. Every slot of a block executes once per visit, so
// the walk counts block visits and expands them to slots once at the
// end. It is the walker's condTaken and advance, inlined over a compact
// per-block table, drawing exactly the same numbers.
func (prog *program) dryRun(r *rng.Source) []uint32 {
	dryRuns.Add(1)
	terms := make([]dryTerm, len(prog.blocks))
	for i, b := range prog.blocks {
		st := &prog.insts[b.first+b.n-1]
		terms[i] = dryTerm{n: int32(b.n), target: st.target, class: st.class, loop: st.loop, trips: st.trips}
		if st.class == isa.CondBranch && !st.loop {
			terms[i].thresh = rng.Threshold(st.bias)
		}
	}
	visits := make([]uint32, len(prog.blocks))
	// Loop trip counts live per block: each block has one terminator.
	trips := make([]int32, len(prog.blocks))
	for i := range trips {
		trips[i] = -1
	}
	stack := make([]walkFrame, 0, 2*callLevels)
	nBlocks := int32(len(prog.blocks))
	var cur, dwell int32
	for executed := 0; executed < dryRunLength; {
		bt := &terms[cur]
		visits[cur]++
		executed += int(bt.n)
		next := cur + 1
		if next == nBlocks {
			next = 0
		}
		switch bt.class {
		case isa.CondBranch:
			taken := false
			switch {
			case !bt.loop:
				taken = r.Below(bt.thresh)
			case dwell > maxFuncDwell:
				trips[cur] = -1 // drain: the visit has outstayed its budget
			default:
				rem := trips[cur]
				if rem < 0 {
					rem = int32(bt.trips)
					switch x := r.Float64(); {
					case x < 0.10 && rem > 1:
						rem--
					case x > 0.90:
						rem++
					}
				}
				if rem > 0 {
					trips[cur] = rem - 1
					taken = true
				} else {
					trips[cur] = -1
				}
			}
			if taken {
				next = bt.target
			}
		case isa.Jump:
			next = bt.target
		case isa.Call:
			if len(stack) < 2*callLevels {
				stack = append(stack, walkFrame{ret: next, dwell: dwell})
			}
			dwell = 0
			next = bt.target
		case isa.Ret:
			if n := len(stack); n > 0 {
				next = stack[n-1].ret
				dwell = stack[n-1].dwell
				stack = stack[:n-1]
			} else {
				next = prog.entryLevel0(r)
				dwell = 0
			}
		}
		cur = next
		dwell++
	}
	counts := make([]uint32, len(prog.insts))
	for bi, v := range visits {
		b := prog.blocks[bi]
		for i := 0; i < b.n; i++ {
			counts[b.first+i] += v
		}
	}
	return counts
}
