package workload

import "dwarn/internal/isa"

// Source delivers one thread's dynamic uop stream to the pipeline. A
// Stream is the implementation, over either a synthetic Generator or a
// trace decoder (internal/trace); the trace recorder wraps one. The
// pipeline depends only on this seam, so workloads are pluggable end to
// end.
//
// The contract mirrors the generator's: Next yields correct-path uops
// strictly in fetch order and is never rewound (a policy that squashes
// and re-fetches buffers uops itself); the wrong-path methods produce a
// deterministic stream for fetches past a mispredicted branch, seeded
// per episode so replays reproduce bit-identically.
type Source interface {
	// Next produces the next correct-path uop.
	Next() isa.Uop
	// StartPC is the first instruction's address.
	StartPC() uint64
	// StartWrongPath (re)seeds the wrong-path stream for a new
	// misprediction episode; salt identifies the episode (the branch's
	// sequence number) and startPC is where fetch wrongly redirected.
	StartWrongPath(salt, startPC uint64)
	// WrongPathPC returns the PC the front end runs off to after
	// mispredicting branch u.
	WrongPathPC(u *isa.Uop, predictedTaken bool) uint64
	// NextWrongPath produces the next wrong-path uop.
	NextWrongPath() isa.Uop
	// Footprint describes the thread's memory regions for pre-warming.
	Footprint() Footprint
	// ReplayMeta captures everything a trace recorder must persist so a
	// replayer can reproduce this source — including its wrong-path
	// synthesis — byte-exactly.
	ReplayMeta() ReplayMeta
}

// ReplayMeta is the per-thread metadata a trace records alongside the
// uop stream: the address-space base, the static block table (wrong-path
// targets point at real blocks), and the handful of profile parameters
// the wrong-path synthesizer draws from. With these, a replayer's
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

// TrackUop updates st to reflect delivery of correct-path uop u,
// mirroring the generator's internal counter and cursor updates. A
// Stream feeds every delivered uop through this so that when a
// wrong-path episode starts it hands the synthesizer exactly the state
// the generator had when it produced that uop.
func (m *ReplayMeta) TrackUop(st *WrongPathState, u *isa.Uop) {
	switch u.Class {
	case isa.IntALU, isa.IntMul, isa.Load:
		st.IntWrites++
	case isa.FPALU, isa.FPMul:
		st.FPWrites++
	}
	if u.Class.IsMem() {
		off := u.Mem.Addr - m.Base
		switch {
		case off >= farOffset:
			st.FarCursor = (off - farOffset + lineBytes) % farRegion
		case off >= midOffset:
			st.MidCursor = (off - midOffset + lineBytes) % uint64(m.Footprint.MidBytes)
		}
	}
}
