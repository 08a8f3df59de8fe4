package exec

import "dwarn/internal/workload"

// Shared correct paths. Every cell of a checkpoint group fetches the
// same correct-path uops, so the executor keeps one workload.TapeSet
// per group while any of its cells is inside lead (at the warm gate, in
// the line or running) and drops it when the last one leaves. A local
// slot hands the set to its run; the run reads through it only with
// company, another holder in flight or a set already started, and a
// lone cell keeps its private read-ahead streams, which overlap
// generation with the cycle loop (workload.TapeSet.Sources). A cell
// handed to a remote taker never reads the local tapes, so its hold
// passes back while it is taken: a local run whose siblings all run
// remotely is alone, and leaves its tapes for private read-ahead. All
// of an executor's sets draw on one workload.TapeBudget.

// holdTapes counts a cell of the group under key in.
func (e *Executor) holdTapes(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.holdTapesLocked(key)
}

func (e *Executor) holdTapesLocked(key string) {
	s := e.tapes[key]
	if s == nil {
		s = workload.NewTapeSet(e.tapeBudget)
		e.tapes[key] = s
	}
	s.Hold()
}

// leaveTapes counts a leaving cell out, unless a remote taker has it
// and its hold has passed back already.
func (e *Executor) leaveTapes(f *flight, key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if f.job == nil || !f.job.remote {
		e.dropTapesLocked(key)
	}
}

// dropTapesLocked counts a cell out; the last one releases the set.
func (e *Executor) dropTapesLocked(key string) {
	if e.tapes[key].Drop() {
		delete(e.tapes, key)
	}
}

// passTapesLocked passes back the hold of a cell handed to a remote
// taker.
func (e *Executor) passTapesLocked(j *job) {
	if e.ckgate != nil && j.cell.CheckpointKey != "" {
		e.dropTapesLocked(j.cell.CheckpointKey)
		j.remote = true
	}
}

// reclaimTapesLocked restores the hold of a taken cell that rejoins the
// line.
func (e *Executor) reclaimTapesLocked(j *job) {
	if j.remote {
		e.holdTapesLocked(j.cell.CheckpointKey)
		j.remote = false
	}
}

// groupTapes returns the set of the group under key, held by the
// calling cell; nil when the cell holds none (checkpointing off, or no
// checkpoint key).
func (e *Executor) groupTapes(key string) *workload.TapeSet {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tapes[key]
}
