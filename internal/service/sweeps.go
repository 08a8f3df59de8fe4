package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"dwarn/internal/chaos"
	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
	"dwarn/internal/timeline"
)

// One execution path: every submission — a sweep, a single run (a
// sweep record with one public cell), a preloaded spec file, and every
// journal-recovered entry — goes through startSweep. A record is
// prechecked against the executor's store (cells already paid for are
// done at submission time), durably journaled, and its remaining cells
// fan into the one shared executor line under a per-record context, so
// DELETE cancels them cooperatively mid-simulation. Per-cell events
// fold into the record's progress, which the status endpoints, the SSE
// stream (GET /v2/sweeps/{id}/events) and the run JobView are views of.
// One failing cell records its error in its slot; the rest keep going.
// A baselines cell's relative-IPC summary arrives with its terminal
// event: the executor runs its solo baselines (see internal/exec).

// Record states. A record is terminal in StateDone, StateFailed, or
// StateCanceled; a run reports StateQueued until its cell takes an
// executor slot.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Submission errors the HTTP layer maps to 503.
var (
	// ErrQueueFull reports QueueDepth runs already waiting for an
	// executor slot.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShuttingDown reports a submission after Shutdown began.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrTooManySweeps reports sweep admission hitting MaxActiveSweeps.
	ErrTooManySweeps = errors.New("service: too many active sweeps")
)

// errJournal reports a failed durable append at admission. The
// submission is refused (500): admitting work the journal cannot
// remember would silently reintroduce the forget-on-restart bug the
// journal exists to fix.
var errJournal = errors.New("service: journal write failed")

// Record retention: terminal records beyond these bounds are pruned,
// oldest first; active records never are.
const (
	maxJobRecords   = 4096
	maxSweepRecords = 256
)

// sweepCell is one resolved grid point: the canonical spec to run plus
// the static display identity shown in status responses.
type sweepCell struct {
	resolved *spec.Resolved
	view     SweepCell // identity fields only; progress is tracked per cell
}

// cellProgress is one public cell's mutable state, guarded by the
// server mutex.
type cellProgress struct {
	state      string // StateQueued/StateRunning/StateDone/StateFailed/StateCanceled
	cached     bool
	err        string
	throughput *float64
	summary    *stats.Summary // Baselines cells, from their terminal event
}

// sweep is one registered submission: a sweep, or a run (run set,
// exactly one cell).
type sweep struct {
	id          string
	run         bool
	request     *spec.RunSpec // a run's canonical spec, echoed in its JobView
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	cells       []sweepCell

	progress    []cellProgress
	result      *sim.Result // a run's result, from its done or cached event
	events      []SweepEvent
	frameEvents int             // timeline frame events retained so far
	waiters     []chan struct{} // SSE streams blocked until the next event
	state       string          // StateRunning until terminal
	recovered   bool            // resumed from the journal after a restart
	cancel      context.CancelFunc
}

// terminal reports whether the record has finished (all cells terminal).
func (sw *sweep) terminal() bool { return sw.state != StateRunning }

// records is one id space of the registry — runs ("sim-000001") or
// sweeps ("sweep-000001") — in submission order. Guarded by the server
// mutex.
type records struct {
	prefix string
	max    int
	seq    uint64
	byID   map[string]*sweep
	order  []string
}

func newRecords(prefix string, max int) *records {
	return &records{prefix: prefix, max: max, byID: make(map[string]*sweep)}
}

// advance moves the id sequence past a journaled id, so fresh ids
// never collide with recovered ones.
func (r *records) advance(id string) {
	if n := trailingSeq(id); n > r.seq {
		r.seq = n
	}
}

// add registers sw, allocating its id when it has none, and prunes the
// oldest terminal records beyond max.
func (r *records) add(sw *sweep) {
	if sw.id == "" {
		r.seq++
		sw.id = fmt.Sprintf("%s-%06d", r.prefix, r.seq)
	}
	r.byID[sw.id] = sw
	r.order = append(r.order, sw.id)
	excess := len(r.order) - r.max
	if excess <= 0 {
		return
	}
	kept := r.order[:0]
	for _, id := range r.order {
		if excess > 0 && r.byID[id].terminal() {
			delete(r.byID, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

// remove unregisters an id (a submission refused after registration).
func (r *records) remove(id string) {
	delete(r.byID, id)
	for i := len(r.order) - 1; i >= 0; i-- {
		if r.order[i] == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

// trailingSeq parses the numeric suffix of a "name-000042" style id (0
// when absent), used to advance id sequences past recovered entries.
func trailingSeq(id string) uint64 {
	n, _ := strconv.ParseUint(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	return n
}

// maxSweepFrameEvents bounds the timeline frame events one sweep's
// event log retains: frames are a live-streaming convenience (the full
// timeline stays available per run), so past the bound further frames
// are dropped rather than growing a long sweep's record unboundedly.
const maxSweepFrameEvents = 4096

// frameSink receives one live interval frame from a cell identified by
// its fingerprint. Attached to a sweep's execution context, read by the
// server's exec RunFunc.
type frameSink func(fp string, f *timeline.Frame)

type frameSinkKey struct{}

func withFrameSink(ctx context.Context, fn frameSink) context.Context {
	return context.WithValue(ctx, frameSinkKey{}, fn)
}

func frameSinkFrom(ctx context.Context) frameSink {
	fn, _ := ctx.Value(frameSinkKey{}).(frameSink)
	return fn
}

// sweepFrameSink folds live interval frames into the sweep's event log
// as "frame" events, waking SSE streams. The frame's Threads slice is
// the sampler's ring storage, reused after the ring wraps — it is
// deep-copied before the event escapes the callback.
func (s *Server) sweepFrameSink(sw *sweep, fpIndex map[string]int) frameSink {
	return func(fp string, f *timeline.Frame) {
		idx, ok := fpIndex[fp]
		if !ok {
			return
		}
		cp := *f
		cp.Threads = append([]timeline.ThreadFrame(nil), f.Threads...)
		s.mu.Lock()
		defer s.mu.Unlock()
		if sw.frameEvents >= maxSweepFrameEvents {
			return
		}
		sw.frameEvents++
		sw.events = append(sw.events, SweepEvent{
			Seq:         len(sw.events),
			Index:       idx,
			Fingerprint: fp,
			State:       SweepEventFrame,
			Frame:       &cp,
			Total:       len(sw.cells),
		})
		s.wakeSweepLocked(sw)
	}
}

// sweepStart parameterises startSweep for its callers: HTTP and
// preload submissions (fresh id, journaled, admission-bounded) and
// journal recovery (preassigned id, already journaled, bypasses the
// bounds).
type sweepStart struct {
	cells       []sweepCell
	run         bool          // a single run: one cell, a sim-NNNNNN id, rendered as a JobView
	request     *spec.RunSpec // a run's canonical spec
	trace       string
	id          string    // preassigned id (recovery); "" allocates
	recovered   bool      // resumed from the journal: skip admission + submit record
	submittedAt time.Time // original submit time (recovery); zero = now
	// final is the journaled terminal state of an entry that finished
	// before a restart (with finalErr, its error): the record is
	// re-registered, never re-executed. A done entry re-attaches what
	// the store still holds.
	final, finalErr string
}

// startSweep registers resolved cells, durably journals the admission,
// completes what the store already holds, and fans the remainder into
// the shared executor. The submit trace ID is re-attached to the
// record's own (server-lifetime) execution context, so every cell it
// pays for — and the sim runs underneath — logs under it.
func (s *Server) startSweep(p sweepStart) (*sweep, error) {
	cells := p.cells
	// Precheck every cell against the store: cells an earlier run,
	// another sweep, or a duplicate already paid for — with the solo
	// baselines a baselines cell needs — are done at submission time,
	// which is also what lets a re-submitted or recovered sweep resume
	// exactly where it stopped. An entry that ended failed or canceled
	// keeps that state: nothing is looked up.
	resolved := make([]*spec.Resolved, len(cells))
	for i, c := range cells {
		resolved[i] = c.resolved
	}
	hits := make([]exec.CellResult, len(cells))
	if p.final == "" || p.final == StateDone {
		hits = s.exec.Lookup(resolved)
	}
	var pending []*spec.Resolved
	var pendingIdx []int // index in cells, so events map back
	for i, c := range resolved {
		if hits[i].Result == nil {
			pending = append(pending, c)
			pendingIdx = append(pendingIdx, i)
		}
	}
	execute := len(pending) > 0 && p.final == ""

	sw := &sweep{
		id:          p.id,
		run:         p.run,
		request:     p.request,
		submittedAt: p.submittedAt,
		cells:       cells,
		progress:    make([]cellProgress, len(cells)),
		state:       StateRunning,
		recovered:   p.recovered,
	}
	if sw.submittedAt.IsZero() {
		sw.submittedAt = time.Now()
	}
	reg := s.registry(p.run)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	// Admission control, fast-fail instead of unbounded backlog: runs
	// waiting for an executor slot are bounded by QueueDepth, live
	// sweeps (each one blocked goroutine per pending cell) by
	// MaxActiveSweeps. Work terminal on arrival is never refused, and
	// recovery bypasses both bounds: that work was admitted (and
	// journaled) before the restart, so refusing it now would wedge it.
	if execute && !p.recovered {
		if p.run && hits[0].Result == nil && s.queuedRuns >= s.opts.QueueDepth {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opts.QueueDepth)
		}
		if !p.run && s.activeSweepsLocked() >= s.opts.MaxActiveSweeps {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w (max %d)", ErrTooManySweeps, s.opts.MaxActiveSweeps)
		}
	}
	if p.id != "" {
		if _, ok := reg.byID[p.id]; ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("service: %q already registered", p.id)
		}
		reg.advance(p.id)
	}
	reg.add(sw)
	for i := range sw.progress {
		sw.progress[i].state = StateQueued
	}
	if p.run {
		s.queuedRuns++ // cellEventLocked counts it down when the cell leaves queued
	}
	for i, h := range hits {
		if h.Result != nil {
			s.cellEventLocked(sw, i, exec.Event{Fingerprint: h.Fingerprint, State: exec.CellCached, Result: h.Result, Summary: h.Summary})
		}
	}
	if !execute {
		if p.final != "" {
			// Cells the store could not serve take the journaled state.
			ev := exec.Event{State: exec.CellDone}
			switch p.final {
			case StateFailed:
				ev.State, ev.Err = exec.CellFailed, errors.New(p.finalErr)
			case StateCanceled:
				ev.State = exec.CellCanceled
			}
			for _, i := range pendingIdx {
				ev.Fingerprint = resolved[i].Fingerprint
				s.cellEventLocked(sw, i, ev)
			}
		}
		s.finishSweepLocked(sw)
		state := sw.state
		s.mu.Unlock()
		// A fresh cached submission journals nothing (no durable state
		// to resume); a resumed one must write its terminal record, or
		// every restart would re-resume it.
		if p.recovered && p.final == "" {
			s.journalFinish(sw.id, state, "")
		}
		if !p.run {
			s.log.Info("sweep cached", "trace", p.trace, "sweep", sw.id, "cells", len(cells))
		}
		return sw, nil
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	sw.cancel = cancel
	s.wg.Add(1)
	s.mu.Unlock()

	// Durability point, outside the server mutex so its fsync never
	// stalls status reads: the submit record must be on stable storage
	// before any cell executes, so a crash from here on recovers the
	// record instead of forgetting it. A recovered record's submit
	// already survives in the journal.
	if !p.recovered && s.jrnl != nil {
		specs := make([]spec.RunSpec, len(cells))
		for i, c := range cells {
			specs[i] = c.resolved.Spec
		}
		kind := journal.KindSweep
		if p.run {
			kind = journal.KindRun
		}
		rec := journal.Record{Type: journal.TypeSubmit, ID: sw.id, Kind: kind, Time: sw.submittedAt, Cells: specs}
		if err := s.journalAppend(rec); err != nil {
			s.mu.Lock()
			reg.remove(sw.id)
			if p.run && sw.progress[0].state == StateQueued {
				s.queuedRuns--
			}
			s.mu.Unlock()
			cancel()
			s.wg.Done()
			return nil, fmt.Errorf("%w: %v", errJournal, err)
		}
	}
	// Chaos point for the crash drills: a process exit injected here
	// dies with the record journaled but not yet executing — exactly
	// the window restart recovery must cover.
	_ = chaos.Fire("sweep.journal.appended", sw.id)

	// The record's context derives from the server lifetime, not the
	// submitting request (the work outlives the HTTP exchange), so the
	// request's trace and the server's logger are re-attached here.
	// Sweeps also stream live interval frames into their event log.
	runCtx := obs.WithLogger(obs.WithTrace(ctx, p.trace), s.log)
	if !p.run {
		s.log.Info("sweep submitted", "trace", p.trace, "sweep", sw.id,
			"cells", len(cells), "pending", len(pending), "recovered", p.recovered)
		// First public cell per fingerprint, for routing live frames back
		// to a cell index (duplicate cells share one simulation anyway).
		fpIndex := make(map[string]int, len(cells))
		for i, c := range cells {
			if _, ok := fpIndex[c.resolved.Fingerprint]; !ok {
				fpIndex[c.resolved.Fingerprint] = i
			}
		}
		runCtx = withFrameSink(runCtx, s.sweepFrameSink(sw, fpIndex))
	}

	go func() {
		defer s.wg.Done()
		defer cancel()
		start := time.Now()
		s.exec.Execute(runCtx, pending, func(ev exec.Event) {
			s.mu.Lock()
			s.cellEventLocked(sw, pendingIdx[ev.Index], ev)
			s.mu.Unlock()
		})
		s.mu.Lock()
		s.finishSweepLocked(sw)
		state, errMsg := sw.state, ""
		if p.run && state == StateFailed {
			errMsg = sw.progress[0].err
		}
		s.mu.Unlock()
		// Terminal record before wg.Done: Shutdown's journal compaction
		// waits on the drain, so a shutdown-canceled record is journaled
		// canceled — never re-resumed on the next start.
		s.journalFinish(sw.id, state, errMsg)
		if !p.run {
			s.log.Info("sweep finished", "trace", p.trace, "sweep", sw.id, "state", state,
				"cells", len(cells), "dur", time.Since(start).Round(time.Millisecond))
		}
	}()
	return sw, nil
}

// journalFinish appends an entry's terminal record (no-op without a
// journal); failures are logged, not fatal — the worst case is a
// completed entry re-resumed on the next start, where the store
// precheck completes it instantly again.
func (s *Server) journalFinish(id, state, errMsg string) {
	rec := journal.Record{Type: journal.TypeFinish, ID: id, State: state, Error: errMsg}
	if err := s.journalAppend(rec); err != nil {
		s.log.Warn("journal finish append failed", "id", id, "err", err)
	}
}

// cellEventLocked folds one executor event into the record: the cell's
// progress (with a run's result and a baselines cell's summary) and the
// event log, waking SSE streams.
func (s *Server) cellEventLocked(sw *sweep, idx int, ev exec.Event) {
	if ev.State == exec.CellStarted && sw.startedAt.IsZero() {
		sw.startedAt = time.Now()
	}
	p := &sw.progress[idx]
	wasQueued := p.state == StateQueued
	switch ev.State {
	case exec.CellStarted:
		p.state = StateRunning
	case exec.CellDone, exec.CellCached:
		p.state = StateDone
		p.cached = ev.State == exec.CellCached
		p.summary = ev.Summary
		if ev.Result != nil {
			t := ev.Result.Throughput
			p.throughput = &t
			if sw.run {
				sw.result = ev.Result
			}
		}
	case exec.CellFailed:
		p.state = StateFailed
		if ev.Err != nil {
			p.err = ev.Err.Error()
		}
	case exec.CellCanceled:
		p.state = StateCanceled
		p.err = "canceled"
	}
	if sw.run && wasQueued && p.state != StateQueued {
		s.queuedRuns--
	}

	e := SweepEvent{
		Seq:         len(sw.events),
		Index:       idx,
		Fingerprint: ev.Fingerprint,
		State:       ev.State,
		Throughput:  p.throughput,
		Error:       p.err,
		Total:       len(sw.cells),
	}
	if ev.State == exec.CellStarted {
		e.Throughput = nil
		e.Error = ""
	}
	for i := range sw.cells {
		switch sw.progress[i].state {
		case StateDone:
			e.Done++
		case StateFailed:
			e.Failed++
		case StateCanceled:
			e.Canceled++
		}
	}
	sw.events = append(sw.events, e)
	s.wakeSweepLocked(sw)
}

// wakeSweepLocked releases every SSE stream blocked on this sweep.
func (s *Server) wakeSweepLocked(sw *sweep) {
	for _, ch := range sw.waiters {
		close(ch)
	}
	sw.waiters = nil
}

// finishSweepLocked derives the record's terminal state once every
// cell is terminal.
func (s *Server) finishSweepLocked(sw *sweep) {
	var failed, canceled int
	for i := range sw.progress {
		switch sw.progress[i].state {
		case StateFailed:
			failed++
		case StateCanceled:
			canceled++
		}
	}
	switch {
	case failed > 0:
		sw.state = StateFailed
	case canceled > 0:
		sw.state = StateCanceled
	default:
		sw.state = StateDone
	}
	sw.finishedAt = time.Now()
	if sw.startedAt.IsZero() {
		sw.startedAt = sw.finishedAt
	}
	s.wakeSweepLocked(sw)
}

// sweepStatusLocked assembles the aggregate view of a sweep.
func (s *Server) sweepStatusLocked(sw *sweep) *SweepStatus {
	st := &SweepStatus{
		ID:          sw.id,
		State:       sw.state,
		SubmittedAt: sw.submittedAt,
		Recovered:   sw.recovered,
		Total:       len(sw.cells),
		Cells:       make([]SweepCell, 0, len(sw.cells)),
	}
	for i, c := range sw.cells {
		p := sw.progress[i]
		cell := c.view
		cell.State = p.state
		cell.Cached = p.cached
		cell.Error = p.err
		cell.Throughput = p.throughput
		if p.summary != nil {
			h, ws := p.summary.Hmean, p.summary.WeightedSpeedup
			cell.Hmean, cell.WeightedSpeedup = &h, &ws
		}
		switch p.state {
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		}
		st.Cells = append(st.Cells, cell)
	}
	return st
}

// sweepStatus is sweepStatusLocked under the server mutex.
func (s *Server) sweepStatus(sw *sweep) *SweepStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweepStatusLocked(sw)
}

// runState is a run's JobView state: queued until its cell takes an
// executor slot, running until the record is terminal.
func (sw *sweep) runState() string {
	switch {
	case sw.terminal():
		return sw.state
	case len(sw.progress) > 0 && sw.progress[0].state == StateQueued:
		return StateQueued
	}
	return StateRunning
}

// runViewLocked renders a run record as a JobView. The payload is
// returned separately, so callers marshal it outside the server mutex.
func (s *Server) runViewLocked(sw *sweep) (JobView, *SimulationResult) {
	v := JobView{
		ID:          sw.id,
		Kind:        "sim",
		State:       sw.runState(),
		Request:     sw.request,
		SubmittedAt: sw.submittedAt,
	}
	if len(sw.progress) > 0 {
		v.Cached = sw.progress[0].cached
		if sw.terminal() {
			v.Error = sw.progress[0].err
		}
	}
	if !sw.startedAt.IsZero() {
		t := sw.startedAt
		v.StartedAt = &t
	}
	if !sw.finishedAt.IsZero() {
		t := sw.finishedAt
		v.FinishedAt = &t
	}
	if sw.result == nil || !sw.terminal() {
		return v, nil
	}
	return v, &SimulationResult{Fingerprint: sw.cells[0].view.Fingerprint, Result: sw.result, Summary: sw.progress[0].summary}
}

// withPayload attaches a marshaled run payload to its view.
func withPayload(v JobView, payload *SimulationResult) JobView {
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			v.Error = fmt.Sprintf("service: encode result: %v", err)
		}
		v.Result = raw
	}
	return v
}

// jobView renders a run record with its payload.
func (s *Server) jobView(sw *sweep) JobView {
	s.mu.Lock()
	v, payload := s.runViewLocked(sw)
	s.mu.Unlock()
	return withPayload(v, payload)
}

// registry returns the id space for runs or sweeps.
func (s *Server) registry(run bool) *records {
	if run {
		return s.runs
	}
	return s.sweeps
}

// lookup returns a registered record by id.
func (s *Server) lookup(reg *records, id string) (*sweep, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw, ok := reg.byID[id]
	return sw, ok
}

// activeSweepsLocked counts non-terminal sweeps; callers hold s.mu.
func (s *Server) activeSweepsLocked() int {
	n := 0
	for _, sw := range s.sweeps.byID {
		if !sw.terminal() {
			n++
		}
	}
	return n
}

func (s *Server) activeSweeps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeSweepsLocked()
}

// queueLen is the number of runs waiting for an executor slot (the
// dwarn_jobs_queue_depth gauge and the QueueDepth bound).
func (s *Server) queueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedRuns
}

// runCounts returns the number of retained runs per JobView state.
func (s *Server) runCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int)
	for _, sw := range s.runs.byID {
		out[sw.runState()]++
	}
	return out
}

// cancelRecord cancels a live run or sweep: cells already finished
// keep their results, running cells stop at their next cooperative
// check, queued cells never start. It answers 404 or 409 itself and
// reports whether the caller should render the record.
func (s *Server) cancelRecord(w http.ResponseWriter, reg *records, noun, id string) (*sweep, bool) {
	s.mu.Lock()
	sw, ok := reg.byID[id]
	live := ok && !sw.terminal()
	s.mu.Unlock()
	switch {
	case !ok:
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no %s %q", noun, id))
		return nil, false
	case !live:
		writeError(w, http.StatusConflict, fmt.Errorf("service: %s %q already finished", noun, id))
		return nil, false
	}
	// The cancel record makes the request itself durable: if the
	// process dies before the cells observe their context, the next
	// start treats the record as terminal instead of re-resuming work
	// the client asked to stop.
	if err := s.journalAppend(journal.Record{Type: journal.TypeCancel, ID: id}); err != nil {
		s.log.Warn("journal cancel append failed", "id", id, "err", err)
	}
	sw.cancel()
	return sw, true
}

func (s *Server) handleGetSweep(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(s.sweeps, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.sweepStatus(sw))
}

func (s *Server) handleCancelSweep(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.cancelRecord(w, s.sweeps, "sweep", r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, s.sweepStatus(sw))
	}
}

// handleSweepEvents streams a sweep's per-cell progress as Server-Sent
// Events: the full event history replays first ("cell" events), then
// the stream follows live completions, and a final "end" event carries
// the terminal SweepStatus before the stream closes. Consuming the
// stream to completion is therefore equivalent to polling the status
// endpoint until terminal, without the polling.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(s.sweeps, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	s.sseSubs.Add(1)
	defer s.sseSubs.Add(-1)

	next := 0
	for {
		s.mu.Lock()
		pending := sw.events[next:]
		terminal := sw.terminal()
		var wait chan struct{}
		if len(pending) == 0 && !terminal {
			wait = make(chan struct{})
			sw.waiters = append(sw.waiters, wait)
		}
		var final *SweepStatus
		if len(pending) == 0 && terminal {
			final = s.sweepStatusLocked(sw)
		}
		s.mu.Unlock()

		for _, ev := range pending {
			name := "cell"
			if ev.State == SweepEventFrame {
				name = "frame"
			}
			if err := writeSSE(w, name, ev); err != nil {
				return
			}
			next++
		}
		if len(pending) > 0 {
			flusher.Flush()
			continue
		}
		if final != nil {
			if writeSSE(w, "end", final) == nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wait:
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE emits one named SSE frame with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
