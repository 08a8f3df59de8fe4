package service

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"dwarn/internal/store"
	"dwarn/internal/trace"
)

// TraceStore holds uploaded uop traces in memory, keyed by content
// digest: a store.Mem bounded by entry count and total payload bytes.
// Uploads are idempotent: re-posting an identical trace refreshes its
// LRU slot and upload time and keeps the same id. Traces are immutable
// after load, so concurrently running simulations keep working against
// an evicted trace — eviction only removes the id from the index.
type TraceStore struct {
	mem *store.Mem[*storedTrace]
}

// storedTrace is one entry: the trace and its view, built at upload.
type storedTrace struct {
	tr   *trace.Trace
	view TraceView
}

// NewTraceStore bounds the store at maxEntries traces and maxBytes of
// total decompressed payload.
func NewTraceStore(maxEntries int, maxBytes int64) *TraceStore {
	return &TraceStore{mem: store.NewMem(maxEntries, maxBytes, func(st *storedTrace) int64 { return st.view.Bytes })}
}

// Add stores tr (size is its payload footprint) and returns its view.
func (s *TraceStore) Add(tr *trace.Trace, size int64) TraceView {
	st := &storedTrace{tr: tr, view: TraceView{
		ID:         tr.Digest,
		Workload:   tr.Workload,
		Seed:       tr.Seed,
		Threads:    len(tr.Threads),
		Benchmarks: tr.Benchmarks(),
		Uops:       tr.Uops(),
		Bytes:      size,
		UploadedAt: time.Now(),
	}}
	s.mem.Put(tr.Digest, st)
	return st.view
}

// Get resolves an id — a full digest or an unambiguous prefix of at
// least 8 hex characters — refreshes its LRU slot, and returns the view
// of the entry it resolved.
func (s *TraceStore) Get(id string) (TraceView, error) {
	st, err := s.lookup(id)
	return st.view, err
}

// ResolveTrace implements spec.TraceResolver: spec workload trace
// references are store ids (content digests or unambiguous prefixes).
func (s *TraceStore) ResolveTrace(ref string) (*trace.Trace, error) {
	st, err := s.lookup(ref)
	return st.tr, err
}

func (s *TraceStore) lookup(id string) (storedTrace, error) {
	if st, ok := s.mem.Get(id); ok {
		return *st, nil
	}
	if len(id) >= 8 {
		var matches []string
		s.mem.Range(func(d string, _ *storedTrace) {
			if strings.HasPrefix(d, id) {
				matches = append(matches, d)
			}
		})
		if len(matches) > 1 {
			return storedTrace{}, fmt.Errorf("service: trace id %q is ambiguous (%d matches)", id, len(matches))
		}
		if len(matches) == 1 {
			if st, ok := s.mem.Get(matches[0]); ok {
				return *st, nil
			}
		}
	}
	return storedTrace{}, fmt.Errorf("service: no trace %q (upload via POST /v2/traces)", id)
}

// TraceView is the JSON shape of a stored trace.
type TraceView struct {
	ID         string    `json:"id"`
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Threads    int       `json:"threads"`
	Benchmarks []string  `json:"benchmarks"`
	Uops       uint64    `json:"uops"`
	Bytes      int64     `json:"bytes"`
	UploadedAt time.Time `json:"uploaded_at"`
}

// List returns all stored traces, most recently used last.
func (s *TraceStore) List() []TraceView {
	out := []TraceView{}
	s.mem.Range(func(_ string, st *storedTrace) { out = append(out, st.view) })
	return out
}

// Len reports the number of stored traces (for /healthz).
func (s *TraceStore) Len() int { return s.mem.Len() }

// ---- handlers ----

// handleUploadTrace accepts a raw binary trace file body, validates it,
// and stores it content-addressed. 201 on first upload, 200 on a
// re-upload of identical content.
func (s *Server) handleUploadTrace(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxTraceBytes)
	tr, err := trace.Read(body, s.opts.MaxTracePayload)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusCreated
	if _, ok := s.traces.mem.Get(tr.Digest); ok {
		status = http.StatusOK
	}
	writeJSON(w, status, s.traces.Add(tr, tr.PayloadBytes()))
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	views := s.traces.List()
	sort.Slice(views, func(i, j int) bool { return views[i].UploadedAt.Before(views[j].UploadedAt) })
	writeJSON(w, http.StatusOK, map[string]any{"traces": views})
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, err := s.traces.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
