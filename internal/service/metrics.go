package service

import (
	"net/http"
	"strconv"
	"time"

	"dwarn/internal/obs"
)

// The service's observability: every request passes through obsHandler
// (latency/status by route, request-ID access log), and GET /metrics
// serves the server's registry — HTTP series, run/sweep/cache gauges,
// and the shared executor's counters — merged with obs.Default, where
// the simulation engine records its end-of-run snapshots. One scrape
// therefore sees the whole stack: HTTP → queue → executor → engine.

// registerGauges binds the server's live state into its registry as
// func-backed series, sampled at scrape time.
func (s *Server) registerGauges() {
	r := s.reg
	r.GaugeFunc("dwarn_jobs_queue_depth", "Runs waiting for an executor slot.",
		func() float64 { return float64(s.queueLen()) })
	r.Gauge("dwarn_jobs_queue_capacity", "Bound on runs waiting for an executor slot.").Set(float64(s.opts.QueueDepth))
	for _, state := range []string{StateQueued, StateRunning, StateDone, StateFailed, StateCanceled} {
		r.GaugeFunc("dwarn_jobs", "Retained run records by state.",
			func() float64 { return float64(s.runCounts()[state]) }, obs.L("state", state))
	}
	r.GaugeFunc("dwarn_sweeps_active", "Sweeps currently executing (admission is bounded by max_active_sweeps).",
		func() float64 { return float64(s.activeSweeps()) })
	r.Gauge("dwarn_sweeps_active_max", "Admission bound on concurrently executing sweeps.").Set(float64(s.opts.MaxActiveSweeps))
	r.GaugeFunc("dwarn_sse_subscribers", "Open sweep SSE event streams.",
		func() float64 { return float64(s.sseSubs.Load()) })
	r.GaugeFunc("dwarn_cache_entries", "Results in the in-memory result tier.",
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.CounterFunc("dwarn_cache_hits_total", "In-memory result tier hits (the LRU every run and sweep cell reads through).",
		func() float64 { return float64(s.cache.Stats().Hits) })
	r.CounterFunc("dwarn_cache_misses_total", "In-memory result tier misses.",
		func() float64 { return float64(s.cache.Stats().Misses) })
	r.GaugeFunc("dwarn_traces", "Uploaded uop traces held in memory.",
		func() float64 { return float64(s.traces.Len()) })

	// Admission-control outcomes (middleware.go).
	s.metAuthFail = r.Counter("dwarn_http_auth_failures_total", "Requests rejected 401 for a missing or invalid bearer token.")
	s.metRateLimited = r.Counter("dwarn_http_rate_limited_total", "Requests rejected 429 by the per-client rate limiter.")
	s.metShed = r.Counter("dwarn_http_load_shed_total", "Requests rejected 503 by saturation load shedding.")

	// Durable registry (journal.go), present only with -journal.
	if s.jrnl != nil {
		r.CounterFunc("dwarn_journal_appends_total", "Registry records durably appended since startup.",
			func() float64 { return float64(s.jrnl.Appends()) })
		r.Gauge("dwarn_journal_replayed_records", "Registry records replayed from the journal at startup.").Set(float64(s.jrnl.Replayed()))
		torn := 0.0
		if s.jrnl.Torn() {
			torn = 1
		}
		r.Gauge("dwarn_journal_torn_tail", "1 when startup replay found and truncated a torn journal tail.").Set(torn)
	}
}

// statusWriter captures the response code for metrics and access logs.
// It forwards Flush so the SSE stream keeps working behind the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// requestID picks the request's trace ID: a sane inbound X-Request-ID
// (callers correlating across services supply their own), else a fresh
// sequence ID. Sane means short and printable-ASCII with no spaces —
// anything else would pollute log lines and response headers.
func (s *Server) requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" && len(id) <= 64 && saneID(id) {
		return id
	}
	return "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
}

func saneID(id string) bool {
	for i := 0; i < len(id); i++ {
		if c := id[i]; c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}

// obsHandler wraps the mux with per-request metrics and structured
// access logs. The route label is the mux's registered pattern (bounded
// cardinality), never the raw URL. The request ID doubles as the trace
// ID: it rides the request context (with the server's logger) into
// handlers, record contexts, exec cells, and ultimately the sim run — one
// ID from HTTP accept to cycle loop.
func (s *Server) obsHandler() http.Handler {
	const reqHelp = "HTTP requests by route pattern and status code."
	const latHelp = "HTTP request latency by route pattern."
	inner := s.admitHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, route := s.mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		id := s.requestID(r)
		w.Header().Set("X-Request-ID", id)
		r = r.WithContext(obs.WithLogger(obs.WithTrace(r.Context(), id), s.log))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		inner.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		code := strconv.Itoa(sw.code)
		s.reg.Counter("dwarn_http_requests_total", reqHelp, obs.L("route", route), obs.L("code", code)).Inc()
		s.reg.Histogram("dwarn_http_request_seconds", latHelp, obs.DefBuckets, obs.L("route", route)).Observe(elapsed.Seconds())
		s.log.Info("request",
			"id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"route", route,
			"code", sw.code,
			"dur", elapsed.Round(time.Microsecond),
			"remote", r.RemoteAddr,
		)
	})
}

// handleMetrics serves the Prometheus text exposition: the server's own
// registry first, then obs.Default (the engine's run snapshots and any
// process-wide series). The two registries use disjoint name sets by
// convention, so the merge is concatenation.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
	if s.reg != obs.Default {
		_ = obs.Default.WritePrometheus(w)
	}
}

// MetricsHandler exposes the merged /metrics endpoint as a standalone
// handler for the admin mux (cmd/dwarnd -admin).
func (s *Server) MetricsHandler() http.Handler { return http.HandlerFunc(s.handleMetrics) }

// Registry returns the server's metrics registry (tests read counters
// through it; the dwarnd main wires it nowhere else).
func (s *Server) Registry() *obs.Registry { return s.reg }
