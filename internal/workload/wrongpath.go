package workload

import (
	"dwarn/internal/isa"
	"dwarn/internal/rng"
)

// WrongPathState is the slice of generator state a wrong-path episode
// branches off from: the round-robin writer counters (so wrong-path
// destinations continue the correct path's register pattern) and the
// streaming-region cursors (so wrong-path loads pollute near the data
// the thread is actually touching). The correct path never advances
// while an episode is active, so a snapshot at episode start is exact.
type WrongPathState struct {
	IntWrites, FPWrites  uint64
	FarCursor, MidCursor uint64
}

// WrongPathSynth synthesizes the deterministic wrong-path uop stream for
// fetches past a mispredicted branch. It is driven entirely by
// ReplayMeta plus a WrongPathState snapshot, so a live and a replayed
// Stream produce bit-identical wrong paths: the stream is a pure
// function of (episode salt, start PC, state, metadata).
//
// Wrong-path uops fetch, rename, and execute (polluting caches and
// predictor history) but are squashed when the mispredicted branch
// resolves. Wrong-path branches carry plausible outcomes so fetch
// follows them, but the pipeline never treats them as mispredicted.
type WrongPathSynth struct {
	meta *ReplayMeta

	r   rng.Source // reseeded in place per episode, so Start never allocates
	pc  uint64
	seq uint64
	st  WrongPathState
}

// NewWrongPathSynth builds a synthesizer over meta. meta must outlive
// the synthesizer.
func NewWrongPathSynth(meta *ReplayMeta) WrongPathSynth {
	return WrongPathSynth{meta: meta, r: *rng.New(meta.Base)}
}

// Start (re)seeds the stream for a new misprediction episode. salt
// should identify the episode (e.g. the branch's sequence number) so
// replays are deterministic; startPC is where the front end wrongly
// redirected to; st is the correct path's state at the episode start.
func (s *WrongPathSynth) Start(salt, startPC uint64, st WrongPathState) {
	s.r = *rng.New(salt*0x9e3779b97f4a7c15 ^ s.meta.Base)
	s.pc = startPC
	s.seq = 0
	s.st = st
}

// PCAfterMispredict returns the PC the front end runs off to after
// mispredicting branch u: the fall-through when the prediction was
// not-taken, otherwise a deterministic pseudo-target standing in for a
// stale BTB entry. Stale targets point at recently executed code, so
// the pseudo-target stays near the branch — a uniformly random target
// would turn every misprediction into a cold I-cache excursion.
func (s *WrongPathSynth) PCAfterMispredict(u *isa.Uop, predictedTaken bool) uint64 {
	if !predictedTaken {
		return u.PC + 4
	}
	h := u.PC * 0x9e3779b97f4a7c15 >> 33
	return s.blockPC(s.nearbyBlock(u.PC, h))
}

// blockPC returns the address of the first instruction of block b.
func (s *WrongPathSynth) blockPC(b int32) uint64 {
	return s.meta.Base + codeOffset + uint64(s.meta.BlockStarts[b])*4
}

// nearbyBlock maps a PC to its block and offsets it by hash within a
// small window, clamped to the program.
func (s *WrongPathSynth) nearbyBlock(pc, hash uint64) int32 {
	slot := int32((pc - s.meta.Base - codeOffset) / 4)
	starts := s.meta.BlockStarts
	// Binary search for the block containing slot.
	lo, hi := 0, len(starts)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if starts[mid] <= slot {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	b := lo + int(hash%17) - 8
	if b < 0 {
		b = 0
	}
	if b >= len(starts) {
		b = len(starts) - 1
	}
	return int32(b)
}

// Next writes the next wrong-path uop to u.
func (s *WrongPathSynth) Next(u *isa.Uop) {
	*u = isa.Uop{
		Seq:       s.seq,
		PC:        s.pc,
		WrongPath: true,
		Dest:      isa.NoReg,
		Src1:      isa.NoReg,
		Src2:      isa.NoReg,
	}
	s.seq++

	x := s.r.Float64()
	m := s.meta
	switch {
	case x < m.LoadFrac:
		u.Class = isa.Load
	case x < m.LoadFrac+m.StoreFrac:
		u.Class = isa.Store
	case x < m.LoadFrac+m.StoreFrac+m.BranchFrac:
		u.Class = isa.CondBranch
	case x < m.LoadFrac+m.StoreFrac+m.BranchFrac+m.IntMulFrac:
		u.Class = isa.IntMul
	case x < m.LoadFrac+m.StoreFrac+m.BranchFrac+m.IntMulFrac+m.FPFrac:
		u.Class = isa.FPALU
	default:
		u.Class = isa.IntALU
	}

	switch u.Class {
	case isa.Load:
		u.Src1 = s.intSrc()
		u.Dest = roundRobinDest(&s.st.IntWrites)
		u.Mem.Addr = s.dataAddr()
	case isa.Store:
		u.Src1 = s.intSrc()
		u.Src2 = s.intSrc()
		u.Mem.Addr = s.dataAddr()
	case isa.CondBranch:
		u.Src1 = s.intSrc()
		u.Branch.Taken = s.r.Bool(0.6)
		h := u.PC*0x2545f4914f6cdd1d + s.seq
		u.Branch.Target = s.blockPC(s.nearbyBlock(u.PC, h>>13))
	case isa.FPALU:
		u.Src1 = isa.Reg(1 + s.r.Intn(30))
		u.Dest = roundRobinDest(&s.st.FPWrites)
	default:
		u.Src1 = s.intSrc()
		u.Dest = roundRobinDest(&s.st.IntWrites)
	}

	if u.Class == isa.CondBranch && u.Branch.Taken {
		s.pc = u.Branch.Target
	} else {
		s.pc += 4
	}
}

func (s *WrongPathSynth) intSrc() isa.Reg {
	return isa.Reg(1 + s.r.Intn(30))
}

// dataAddr draws wrong-path data addresses from the same region mixture
// as the correct path, so wrong-path loads pollute the caches and bump
// the policies' miss counters realistically. Wrong-path loads mostly
// touch data near the correct path's cursors — wrong paths run the same
// code over the same structures — with a small fraction streaming ahead
// (true pollution).
func (s *WrongPathSynth) dataAddr() uint64 {
	x := s.r.Float64()
	switch {
	case x < s.meta.FarW:
		var off uint64
		if s.r.Bool(0.8) {
			// Recently streamed lines: likely still cached.
			back := uint64(1+s.r.Intn(256)) * lineBytes
			off = (s.st.FarCursor + farRegion - back) % farRegion
		} else {
			// A genuine extra miss, displaced far from the stream so
			// wrong-path execution never prefetches the correct path's
			// upcoming lines.
			off = (s.st.FarCursor + 8<<20 + uint64(s.r.Intn(4096))*lineBytes) % farRegion
		}
		return s.meta.Base + farOffset + off
	case x < s.meta.FarW+s.meta.MidW:
		back := uint64(s.r.Intn(256)) * lineBytes
		mid := uint64(s.meta.Footprint.MidBytes)
		off := (s.st.MidCursor + mid - back%mid) % mid
		return s.meta.Base + midOffset + off
	default:
		return s.meta.Base + hotOffset + hotOffsetSample(&s.r, s.meta.Footprint.HotBytes)
	}
}

// roundRobinDest allocates the next round-robin destination register
// (r1..r30; r0 is the zero register and r31 is reserved).
func roundRobinDest(writes *uint64) isa.Reg {
	r := isa.Reg(1 + *writes%30)
	*writes++
	return r
}

// Thresholds (rng.Threshold) of hotOffsetSample's fixed draws.
var (
	tHotSkew = rng.Threshold(0.97)
	tHotLine = rng.Threshold(1.0 / 3)
)

// hotOffsetSample draws a skewed offset within the hot region: mostly
// the first few lines (stack tops and hot structures), occasionally
// anywhere. Uniform access over the whole region would make the hot
// set exactly as large as its footprint — the worst case for shared-
// cache LRU and nothing like real programs' locality.
func hotOffsetSample(r *rng.Source, hotBytes int) uint64 {
	hotLines := hotBytes / lineBytes
	var line int
	if r.Below(tHotSkew) {
		line = r.GeometricT(tHotLine)
		if line >= hotLines {
			line = hotLines - 1
		}
	} else {
		line = r.Intn(hotLines)
	}
	return uint64(line)*lineBytes + uint64(r.Intn(lineBytes/8))*8
}
