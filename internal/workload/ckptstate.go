package workload

import "fmt"

// SourceState is the serializable cursor state of a synthetic Generator
// at a stream boundary: the walker's RNG word, the sequence number and
// round-robin writer counters, the mid/far region cursors, and the
// walker's position. It is only capturable when the walker can be
// re-derived from it — empty call stack, no active loop trip counts —
// which holds at the simulator's snapshot point (before the first
// fetched uop).
type SourceState struct {
	RNG       uint64
	Seq       uint64
	CurSlot   int32
	IntWrites uint64
	FPWrites  uint64
	MidCursor uint64
	FarCursor uint64
	WalkCur   int32
	WalkDwell int32
}

// Checkpointable is the optional Source extension the checkpoint engine
// uses: sources that can externalize their cursor state can be forked
// from a snapshot. A Stream implements it by delegating to its
// generator; sources that cannot (trace-backed streams, recording
// wrappers) fail or do not implement it, and their runs start cold.
type Checkpointable interface {
	// CheckpointState captures the source's cursor state, failing when
	// the source is mid-stream in a way the state cannot represent.
	CheckpointState() (SourceState, error)
	// SetCheckpointState rewinds/forwards the source to a previously
	// captured state. The source must have been built from the same
	// (profile, seed, base) triple.
	SetCheckpointState(SourceState) error
}

var _ Checkpointable = (*Generator)(nil)

// CheckpointState implements Checkpointable. It refuses to capture a
// walker with call-stack frames or armed loop trip counters: that state
// is unbounded and episodic, and the only snapshot point the engine uses
// (post-prewarm, before any fetch) never has it.
func (g *Generator) CheckpointState() (SourceState, error) {
	if n := len(g.walk.stack); n != 0 {
		return SourceState{}, fmt.Errorf("workload: generator call stack holds %d frames", n)
	}
	for _, tr := range g.walk.trips {
		if tr >= 0 {
			return SourceState{}, fmt.Errorf("workload: generator has an active loop trip count")
		}
	}
	return SourceState{
		RNG:       g.r.State(),
		Seq:       g.seq,
		CurSlot:   int32(g.curSlot),
		IntWrites: g.intWrites,
		FPWrites:  g.fpWrites,
		MidCursor: g.midCursor,
		FarCursor: g.farCursor,
		WalkCur:   g.walk.cur,
		WalkDwell: g.walk.dwell,
	}, nil
}

// SetCheckpointState implements Checkpointable.
func (g *Generator) SetCheckpointState(st SourceState) error {
	if st.WalkCur < 0 || int(st.WalkCur) >= len(g.prog.blocks) {
		return fmt.Errorf("workload: snapshot walker block %d out of range (%d blocks)", st.WalkCur, len(g.prog.blocks))
	}
	blk := g.prog.blocks[st.WalkCur]
	if st.CurSlot < 0 || int(st.CurSlot) >= blk.n {
		return fmt.Errorf("workload: snapshot slot %d out of range for block %d", st.CurSlot, st.WalkCur)
	}
	g.r.SetState(st.RNG)
	g.seq = st.Seq
	g.curSlot = int(st.CurSlot)
	g.intWrites = st.IntWrites
	g.fpWrites = st.FPWrites
	g.midCursor = st.MidCursor
	g.farCursor = st.FarCursor
	g.walk.cur = st.WalkCur
	g.walk.dwell = st.WalkDwell
	g.walk.stack = g.walk.stack[:0]
	for i := range g.walk.trips {
		g.walk.trips[i] = -1
	}
	return nil
}
