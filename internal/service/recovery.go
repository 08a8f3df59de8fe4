package service

import (
	"fmt"
	"time"

	"dwarn/internal/journal"
)

// Restart recovery: New folds the record stream journal.Open replayed
// (Options.Recovered) into entries and re-registers them through
// startSweep under their original ids. Canonical cell specs re-resolve
// to the same fingerprints they had before the crash, so cells a
// durable store (-store) already holds complete instantly at the
// precheck — recovery's cost is only the cells that were genuinely in
// flight when the process died. Unfinished entries resume; runs that
// had finished stay listed with their journaled state, a done run
// re-attaching its payload (summary included) from the store. Entries
// whose specs no longer resolve (a trace uploaded to the dead process's
// memory, a removed workload) are registered terminal failed and get a
// finish record: failed, not wedged, and never re-resumed.

// recoverFromJournal is called once from New, after the executor and
// routes exist but before the listener serves traffic.
func (s *Server) recoverFromJournal() {
	entries := journal.Fold(s.opts.Recovered)
	if len(entries) == 0 {
		return
	}
	// Advance the id sequences past every journaled entry first, so ids
	// allocated to fresh submissions never collide with recovered ones
	// (including terminal entries that are not re-registered).
	s.mu.Lock()
	for _, e := range entries {
		s.registry(e.Kind == journal.KindRun).advance(e.ID)
	}
	s.mu.Unlock()

	resumed := 0
	for _, e := range entries {
		switch {
		case e.Kind != journal.KindRun && e.Kind != journal.KindSweep:
			s.log.Warn("journal entry with unknown kind", "id", e.ID, "kind", e.Kind)
			continue
		case e.Unfinished():
			resumed++
		case e.Kind == journal.KindSweep:
			// Terminal sweeps are not re-listed; terminal runs are, so
			// GET /v2/runs does not forget work that finished
			// before the process died. (Clean shutdown compacts both
			// away along with everything else.)
			continue
		}
		s.recoverEntry(e)
	}
	s.log.Info("journal recovery", "replayed", len(s.opts.Recovered),
		"entries", len(entries), "resumed", resumed)
}

// recoverEntry re-resolves an entry's canonical cells and registers it
// under its original id, flagged recovered.
func (s *Server) recoverEntry(e *journal.Entry) {
	p := sweepStart{
		run:         e.Kind == journal.KindRun,
		trace:       "recovery",
		id:          e.ID,
		recovered:   true,
		submittedAt: e.SubmittedAt,
		final:       e.State,
		finalErr:    e.Error,
	}
	if p.run && len(e.Cells) == 1 {
		p.request = &e.Cells[0]
	}
	cells, err := s.resolveCells(e.Cells)
	if err == nil && p.run && len(cells) != 1 {
		err = fmt.Errorf("run %s journal entry carries %d specs, want 1", e.ID, len(cells))
	}
	if err == nil {
		p.cells = cells
		if _, err = s.startSweep(p); err == nil {
			s.log.Debug("entry recovered", "id", e.ID, "cells", len(cells), "final", e.State)
			return
		}
	}
	s.failRecovered(e, p, fmt.Errorf("service: recovery: %w", err))
}

// failRecovered registers an entry that cannot be re-registered
// normally as terminal — observable via GET with the cause — and, if
// it was unfinished, journals a failed terminal record so the next
// restart does not retry it forever. A terminal entry keeps its
// journaled state.
func (s *Server) failRecovered(e *journal.Entry, p sweepStart, cause error) {
	state, msg := StateFailed, cause.Error()
	if !e.Unfinished() {
		state, msg = e.State, e.Error
		if state == StateCanceled && msg == "" {
			msg = "canceled"
		}
	}
	sw := &sweep{
		id:          e.ID,
		run:         p.run,
		request:     p.request,
		submittedAt: e.SubmittedAt,
		finishedAt:  time.Now(),
		state:       state,
		recovered:   true,
	}
	for _, rs := range e.Cells {
		view := SweepCell{Policy: rs.Policy.ID(), Seed: rs.Seed, State: state}
		if rs.Workload.Trace != "" {
			view.Trace = rs.Workload.Trace
		} else {
			view.Workload = rs.Workload.ID()
		}
		if rs.Machine != nil {
			view.Machine = rs.Machine.Name
		}
		sw.cells = append(sw.cells, sweepCell{view: view})
		sw.progress = append(sw.progress, cellProgress{state: state, err: msg})
	}
	reg := s.registry(p.run)
	s.mu.Lock()
	if _, ok := reg.byID[sw.id]; !ok {
		reg.add(sw)
	}
	s.mu.Unlock()
	if e.Unfinished() {
		s.journalFinish(sw.id, StateFailed, msg)
	}
	s.log.Warn("entry recovery failed", "id", e.ID, "err", cause)
}
