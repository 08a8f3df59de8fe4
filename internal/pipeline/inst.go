// Package pipeline implements the SMT out-of-order core: an ICOUNT-style
// x.y fetch engine with pluggable fetch policies, a fixed-latency front
// end, per-thread renaming onto shared physical register files, shared
// issue queues, oldest-first out-of-order issue over limited functional
// units, per-thread reorder buffers, and full squash/replay support for
// branch mispredictions and policy-initiated flushes (the FLUSH policy).
//
// The model follows the paper's Table 3 machine and its simulator
// conventions: wrong-path instructions are fetched, renamed, and
// executed; the fetch unit learns of an L1 data miss 5 cycles after the
// load was fetched; latencies assume no bank conflicts.
package pipeline

import (
	"dwarn/internal/bpred"
	"dwarn/internal/bufpool"
	"dwarn/internal/isa"
	"dwarn/internal/mem/hierarchy"
)

// instState tracks a dynamic instruction through the pipeline.
type instState uint8

const (
	stFrontEnd  instState = iota // fetched, traversing decode/rename delay
	stInQueue                    // waiting in an issue queue
	stExecuting                  // issued, result pending
	stDone                       // result available, awaiting commit
	stCommitted
	stSquashed
)

// DynInst is one in-flight dynamic instruction. Instances are pooled in
// a per-CPU arena and recycled at retire/squash; the pipeline and the
// policies must drop every reference by then (squash fires OnSquash,
// completion fires OnLoadReturn, so they do).
type DynInst struct {
	U      isa.Uop
	Thread int
	// Age is the global fetch order, used for oldest-first issue
	// arbitration and squash ordering.
	Age uint64

	state instState

	// fpRegs caches U.Class.UsesFP() — which register space the
	// operands live in — so the per-cycle issue/complete/retire paths
	// avoid re-deriving it from the class.
	fpRegs bool

	// pending counts the source operands still waiting for a value while
	// the instruction sits in an issue queue (a source named twice counts
	// twice). At zero the instruction is on its queue's ready list.
	pending uint8

	// gen is the arena recycling generation. Scheduled events and
	// register waiter entries snapshot it; after the instruction is
	// recycled the snapshot no longer matches and the stale entry is
	// discarded.
	gen uint32

	// Rename state: physical register indices, -1 when absent.
	destPhys int32
	prevPhys int32
	src1Phys int32
	src2Phys int32

	// frontEndReadyAt is the cycle the uop may leave the front end.
	frontEndReadyAt int64
	// completeAt is the cycle the result becomes available.
	completeAt int64

	// Pred is the front end's prediction for branch uops.
	Pred bpred.Prediction

	// MemRes is the memory system's timing verdict for loads/stores,
	// valid once the uop has issued.
	MemRes hierarchy.DataResult

	// missCounted tracks whether this load incremented its thread's
	// in-flight L1-miss counter (so squash/complete decrement exactly
	// once).
	missCounted bool

	// PolicyCounted is scratch state for policies that count this load
	// in a gating counter and must decrement on return/squash.
	PolicyCounted bool
}

// Squashed reports whether the instruction has been squashed.
func (d *DynInst) Squashed() bool { return d.state == stSquashed }

// Done reports whether the result is available.
func (d *DynInst) Done() bool { return d.state >= stDone }

// CompleteAt returns the cycle the instruction's result is (or will be)
// available; valid once issued.
func (d *DynInst) CompleteAt() int64 { return d.completeAt }

// arenaSlab is how many DynInsts one arena growth step allocates.
const arenaSlab = 256

// slabPool recycles arena slabs between machines.
var slabPool bufpool.Slices[DynInst]

// instArena recycles DynInsts through a free list backed by slab
// allocation, so steady-state fetch performs no heap allocations (the
// pool stops growing once it covers the peak number of simultaneously
// live instructions). Freeing bumps the generation counter — it must
// only happen once every pipeline structure has (or is about to drop)
// its reference; see retire and squashYounger. Slabs come from
// slabPool, cleared, and go back to it when the machine is released.
type instArena struct {
	free  []*DynInst
	slabs [][]DynInst
}

// get returns a zeroed instruction carrying its recycling generation.
func (a *instArena) get() *DynInst {
	if n := len(a.free); n > 0 {
		d := a.free[n-1]
		a.free = a.free[:n-1]
		gen := d.gen
		*d = DynInst{gen: gen}
		return d
	}
	slab := slabPool.Get(arenaSlab)
	clear(slab)
	a.slabs = append(a.slabs, slab)
	for i := 1; i < len(slab); i++ {
		a.free = append(a.free, &slab[i])
	}
	return &slab[0]
}

// put recycles an instruction. The generation bump invalidates every
// event and register waiter entry recorded against it; the fields are
// deliberately left intact (reset happens in get) so in-flight squash
// bookkeeping that still inspects state this cycle — e.g. FLUSH's
// declare batch checking Squashed() — sees the truth until the
// instruction is reused.
func (a *instArena) put(d *DynInst) {
	d.gen++
	a.free = append(a.free, d)
}

// release hands every slab back to slabPool. The arena and every
// DynInst it handed out must not be used afterwards; a second release
// is a no-op.
func (a *instArena) release() {
	for _, slab := range a.slabs {
		slabPool.Put(slab)
	}
	a.slabs = nil
	a.free = nil
}
