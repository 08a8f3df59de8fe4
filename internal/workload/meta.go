package workload

import "dwarn/internal/isa"

// ReplayMeta is the per-thread metadata a trace records alongside the
// uop stream: the address-space base, the static block table (wrong-path
// targets point at real blocks), and the handful of profile parameters
// the wrong-path synthesizer draws from. With these, a replay stream's
// WrongPathSynth is bit-identical to the live generator's.
type ReplayMeta struct {
	// Benchmark is the profile name this stream was generated from.
	Benchmark string
	// Base is the thread's virtual address-space base.
	Base uint64
	// StartPC is the first instruction's address.
	StartPC uint64
	// Instruction-mix fractions driving wrong-path class selection.
	LoadFrac, StoreFrac, BranchFrac, IntMulFrac, FPFrac float64
	// FarW and MidW are the calibrated dynamic region weights driving
	// wrong-path data-address region selection.
	FarW, MidW float64
	// BlockStarts holds each static basic block's first slot index, in
	// ascending order (wrong-path control flow lands on block starts).
	BlockStarts []int32
	// Footprint is the thread's memory layout (also carries the hot and
	// mid region sizes the wrong-path address sampler needs).
	Footprint Footprint
}

// pathTracker follows the delivered correct path for the wrong-path
// synthesizer, mirroring the generator's register counters and region
// cursors. Delivery pays one counter increment and, for a memory uop,
// two compares; state folds the counts and reduces the cursors only
// when a wrong-path episode starts.
type pathTracker struct {
	// classes counts delivered uops per class.
	classes [isa.NumClasses]uint64
	// far and mid are the offsets just past the latest far and mid
	// access, not yet reduced modulo their region's size.
	far, mid uint64
}

// track records delivery of correct-path uop u.
func (m *ReplayMeta) track(tr *pathTracker, u *isa.Uop) {
	tr.classes[u.Class]++
	if u.Class.IsMem() {
		off := u.Mem.Addr - m.Base
		switch {
		case off >= farOffset:
			tr.far = off - farOffset + lineBytes
		case off >= midOffset:
			tr.mid = off - midOffset + lineBytes
		}
	}
}

// state returns the WrongPathState the generator had when it produced
// the latest uop track saw, so a wrong-path episode starting there gets
// exactly the generator's state.
func (m *ReplayMeta) state(tr *pathTracker) WrongPathState {
	c := &tr.classes
	st := WrongPathState{
		IntWrites: c[isa.IntALU] + c[isa.IntMul] + c[isa.Load],
		FPWrites:  c[isa.FPALU] + c[isa.FPMul],
		FarCursor: tr.far % farRegion,
	}
	if tr.mid != 0 {
		st.MidCursor = tr.mid % uint64(m.Footprint.MidBytes)
	}
	return st
}
