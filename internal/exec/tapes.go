package exec

import "dwarn/internal/workload"

// Shared correct paths. Every cell of a checkpoint group fetches the
// same correct-path uops, so the executor keeps one workload.TapeSet
// per group while any of its cells is inside lead (at the warm gate, in
// the line or running) and drops it when the last one leaves. A local
// slot hands the set to its run; the run reads through it only with
// company, another holder in flight or a set already started, and a
// lone cell keeps its private read-ahead streams, which overlap
// generation with the cycle loop (workload.TapeSet.Sources). All of an
// executor's sets draw on one workload.TapeBudget.

// holdTapes counts a cell of the group under key in.
func (e *Executor) holdTapes(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.tapes[key]
	if s == nil {
		s = workload.NewTapeSet(e.tapeBudget)
		e.tapes[key] = s
	}
	s.Hold()
}

// dropTapes counts a leaving cell out; the last one releases the set.
func (e *Executor) dropTapes(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tapes[key].Drop() {
		delete(e.tapes, key)
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
