package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/config"
	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/store"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

// Options configures a Server; zero values take the defaults below.
type Options struct {
	// Workers is the executor's local slot count, shared by every run
	// and sweep cell (default 4).
	Workers int
	// QueueDepth bounds runs waiting for an executor slot (default
	// 256); a run submitted beyond it fails fast with a 503.
	QueueDepth int
	// CacheEntries bounds the in-memory result tier (default 4096).
	CacheEntries int
	// MaxCycles caps per-request warmup and measure cycles; 0 applies
	// the default cap of 5M, negative disables the cap.
	MaxCycles int64
	// MaxBodyBytes caps request bodies (default 1MB).
	MaxBodyBytes int64
	// MaxSweepCells bounds one sweep's expansion (default 1024); a
	// larger grid is rejected with a 400 rather than fanning out
	// unbounded jobs.
	MaxSweepCells int
	// MaxActiveSweeps bounds concurrently executing sweeps (default
	// 16). Together with MaxSweepCells this caps the sweep backlog —
	// at most MaxActiveSweeps × MaxSweepCells cells waiting in the
	// executor's line; further submissions fail fast with a 503, the
	// sweep-side analogue of QueueDepth for runs.
	MaxActiveSweeps int
	// MaxTraces bounds the number of stored traces (default 16).
	MaxTraces int
	// Store, when non-nil, durably backs the in-memory result tier:
	// misses fall through to it, results are written to it, and entries
	// survive restarts and LRU eviction (dwarnd -store DIR passes a
	// DirStore — the same layout resumable CLI sweeps use, so the two
	// share cache identity through the filesystem).
	Store exec.Store
	// Checkpoints backs the checkpoint/fork engine: sweep cells sharing
	// a (workload, seed) group calibrate once and fork the group's
	// program cores from this store. Nil defaults to a
	// bounded in-memory store — checkpointing is always on, because
	// forked runs are bit-identical to cold starts. dwarnd -store DIR
	// chains a durable tier under DIR/ckpt so groups survive restarts.
	Checkpoints ckpt.Store
	// Registry receives the server's metrics (HTTP, jobs, sweeps,
	// cache, executor). Default: a fresh registry per server, so
	// concurrent servers in one process (tests) never share counters.
	// GET /metrics additionally merges obs.Default, where the
	// simulation engine records its per-run snapshots.
	Registry *obs.Registry
	// Logger receives structured access and lifecycle logs (default:
	// discard). cmd/dwarnd passes a key=value logger on stderr.
	Logger *obs.Logger
	// AuthToken, when non-empty, requires every request except the
	// GET /healthz and GET /metrics probes to present it as a bearer
	// token (compared in constant time); failures get 401.
	AuthToken string
	// RateLimit, when > 0, enforces a per-client token bucket of this
	// many requests/second; rejected requests get
	// 429 with a Retry-After hint.
	RateLimit float64
	// RateBurst is the rate limiter's bucket capacity (default
	// max(2×RateLimit, 8)).
	RateBurst int
	// RequestTimeout bounds the handling time of non-streaming requests
	// (0 disables; dwarnd defaults it to 30s).
	RequestTimeout time.Duration
	// Journal, when non-nil, durably records run and sweep admissions
	// and terminal states; the Server appends to it as work is admitted
	// and completed, and compacts + closes it on Shutdown.
	Journal *journal.Journal
	// Recovered is the record stream journal.Open replayed before the
	// Server was built. New folds it and resumes unfinished entries
	// through the executor (durably stored cells short-circuit).
	Recovered []journal.Record
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.MaxCycles == 0 {
		o.MaxCycles = 5_000_000
	}
	if o.MaxCycles < 0 {
		o.MaxCycles = 0
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxSweepCells <= 0 {
		o.MaxSweepCells = 1024
	}
	if o.MaxActiveSweeps <= 0 {
		o.MaxActiveSweeps = 16
	}
	if o.MaxTraces <= 0 {
		o.MaxTraces = 16
	}
	if o.Checkpoints == nil {
		o.Checkpoints = ckpt.NewMemStore(ckpt.DefaultMemBytes)
	}
	if o.Registry == nil {
		o.Registry = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = obs.Nop()
	}
	return o
}

// Server is the dwarnd HTTP service: REST handlers over one registry of
// run and sweep records, all executing on one shared executor whose
// store is the in-memory result cache (over Options.Store when set).
type Server struct {
	opts Options
	// cache is the in-memory result tier, an LRU of -cache entries. A
	// repeat request marshals the same *sim.Result, byte-for-byte.
	cache  *store.Mem[*sim.Result]
	traces *TraceStore
	exec   *exec.Executor // the one wait line every run and sweep cell executes from
	mux    *http.ServeMux
	start  time.Time
	reg    *obs.Registry
	log    *obs.Logger

	reqSeq  atomic.Uint64 // request-ID sequence for access logs
	sseSubs atomic.Int64  // open SSE event streams

	// Admission control (middleware.go).
	limiter  *rateLimiter // nil unless Options.RateLimit > 0
	authHash [32]byte     // sha256(Options.AuthToken); compared hashed

	metAuthFail    *obs.Counter
	metRateLimited *obs.Counter
	metShed        *obs.Counter

	// Durable registry. jrecs mirrors every record appended (or
	// replayed) this process lifetime, so Shutdown can fold it and
	// compact the on-disk log down to the still-unfinished entries.
	jrnl  *journal.Journal // nil without -journal
	jmu   sync.Mutex
	jrecs []journal.Record

	wg      sync.WaitGroup  // executing records
	baseCtx context.Context // parent of every record's context
	stopAll context.CancelFunc

	mu         sync.Mutex
	runs       *records
	sweeps     *records
	queuedRuns int // runs whose cell waits for an executor slot
	closed     bool
}

// New builds a Server over its executor.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		cache:   store.NewMem[*sim.Result](opts.CacheEntries, 0, nil),
		traces:  NewTraceStore(opts.MaxTraces, maxTraceStoreBytes),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		reg:     opts.Registry,
		log:     opts.Logger,
		baseCtx: ctx,
		stopAll: cancel,
		runs:    newRecords("sim", maxJobRecords),
		sweeps:  newRecords("sweep", maxSweepRecords),
	}
	if opts.AuthToken != "" {
		s.authHash = sha256.Sum256([]byte(opts.AuthToken))
	}
	s.limiter = newRateLimiter(opts.RateLimit, opts.RateBurst)
	s.jrnl = opts.Journal
	s.jrecs = append(s.jrecs, opts.Recovered...)
	// Every run and sweep cell executes through this one executor: one
	// wait line, one single-flight domain, one store identity. Its
	// metrics (store hits/misses, dedup, per-policy cell times) land in
	// the server's registry. With Options.Store the in-memory tier is
	// chained over the durable one (misses refill the LRU, puts write
	// both).
	results := exec.Store(s.cache)
	if opts.Store != nil {
		results = store.Chain[*sim.Result]{s.cache, opts.Store}
	}
	s.exec = exec.New(exec.Options{
		Workers:     opts.Workers,
		Store:       results,
		Registry:    s.reg,
		Logger:      s.log,
		Run:         s.runCell,
		Checkpoints: opts.Checkpoints,
	})
	s.registerGauges()
	s.routes()
	s.recoverFromJournal()
	return s
}

// runCell computes one resolved cell on a local slot: when the
// executing context carries a frame sink (attached per sweep in
// startSweep) and the cell's spec requested timeline sampling, each
// closing frame is forwarded as it happens instead of waiting for the
// cell's result.
func (s *Server) runCell(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
	opts := res.Options
	if sink := frameSinkFrom(ctx); sink != nil && opts.Timeline != nil {
		fp := res.Fingerprint
		opts.OnFrame = func(f *timeline.Frame) { sink(fp, f) }
	}
	return sim.RunContext(ctx, opts)
}

// Handler returns the root http.Handler: the API mux behind the
// admission-control chain (auth, rate limit, load shedding, body and
// deadline bounds) behind the observability layer (per-route metrics +
// request-ID access logs) — outermost first, so rejected requests are
// still counted and logged.
func (s *Server) Handler() http.Handler { return s.obsHandler() }

// Shutdown stops accepting work and drains every executing run and
// sweep. Queued and running work completes normally; if ctx expires
// first, every remaining record's context is cancelled and Shutdown
// waits for the cells to observe that before returning ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		s.stopAll()
		<-drained
		err = ctx.Err()
	}
	// Compact the journal down to whatever is still unfinished (after a
	// clean drain: nothing, leaving just the header) and close it. A
	// failed compaction is not fatal — the full log replays fine.
	if s.jrnl != nil {
		s.jmu.Lock()
		keep := journal.Live(journal.Fold(s.jrecs))
		s.jmu.Unlock()
		if cerr := s.jrnl.Compact(keep); cerr != nil {
			s.log.Warn("journal compact failed", "err", cerr)
		}
		if cerr := s.jrnl.Close(); cerr != nil {
			s.log.Warn("journal close failed", "err", cerr)
		}
	}
	return err
}

// journalAppend durably appends one registry record (no-op without a
// journal), mirroring it in memory for Shutdown's compaction fold.
func (s *Server) journalAppend(rec journal.Record) error {
	if s.jrnl == nil {
		return nil
	}
	if err := s.jrnl.Append(rec); err != nil {
		return err
	}
	s.jmu.Lock()
	s.jrecs = append(s.jrecs, rec)
	s.jmu.Unlock()
	return nil
}

// CacheStats is the result cache's /healthz snapshot.
type CacheStats struct {
	Entries int    `json:"entries"`
	Max     int    `json:"max"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// CacheStats exposes the result cache counters (used by tests and /healthz).
func (s *Server) CacheStats() CacheStats {
	st := s.cache.Stats()
	return CacheStats{Entries: st.Entries, Max: s.opts.CacheEntries, Hits: st.Hits, Misses: st.Misses}
}

// ---- JSON helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: bad request body: %w", err))
		return false
	}
	return true
}

// submitError maps submission failures to HTTP statuses: saturation
// and shutdown to 503 with a Retry-After hint (so well-behaved clients
// back off instead of hot-looping), a failed durable append to 500,
// anything else to 400.
func submitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShuttingDown),
		errors.Is(err, ErrTooManySweeps), errors.Is(err, ErrSaturated):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterHeader(retryAfterShed))
	case errors.Is(err, errJournal):
		status = http.StatusInternalServerError
	}
	writeError(w, status, err)
}

// resolveSpec compiles a spec against the server's trace store and
// enforces the per-run cycle cap.
func (s *Server) resolveSpec(rs spec.RunSpec) (*spec.Resolved, error) {
	res, err := rs.Resolve(s.traces)
	if err != nil {
		return nil, err
	}
	if err := checkCycles(res.Spec.WarmupCycles, res.Spec.MeasureCycles, s.opts.MaxCycles); err != nil {
		return nil, err
	}
	return res, nil
}

// submitRun starts one resolved run: a record with one public cell
// through startSweep, so a result already stored completes at
// submission time. Its JobView echoes the canonical spec. ctx is the
// submitting request's context, whose trace the run executes under.
func (s *Server) submitRun(ctx context.Context, res *spec.Resolved) (JobView, error) {
	sw, err := s.startSweep(sweepStart{
		cells:   []sweepCell{{resolved: res, view: cellIdentity(res)}},
		run:     true,
		request: &res.Spec,
		trace:   obs.TraceID(ctx),
	})
	if err != nil {
		return JobView{}, err
	}
	return s.jobView(sw), nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sweeps := len(s.sweeps.byID)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.exec.Workers(),
		"queue_depth":    s.opts.QueueDepth,
		"jobs":           s.runCounts(),
		"sweeps":         sweeps,
		"traces":         s.traces.Len(),
		"cache":          s.CacheStats(),
	})
}

func (s *Server) handleMachines(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"machines": config.Machines()})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	type wl struct {
		Name       string   `json:"name"`
		Threads    int      `json:"threads"`
		Mix        string   `json:"mix"`
		Benchmarks []string `json:"benchmarks"`
	}
	var out []wl
	for _, w := range workload.Workloads() {
		out = append(out, wl{Name: w.Name, Threads: w.Threads, Mix: w.Mix.String(), Benchmarks: w.Benchmarks})
	}
	writeJSON(w, http.StatusOK, map[string]any{"workloads": out})
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	type bench struct {
		Name string `json:"name"`
		Type string `json:"type"`
	}
	var out []bench
	for _, name := range workload.Names() {
		p, err := workload.Get(name)
		if err != nil {
			continue
		}
		out = append(out, bench{Name: name, Type: p.Type.String()})
	}
	writeJSON(w, http.StatusOK, map[string]any{"benchmarks": out})
}

func (s *Server) handleListRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	runs := make([]*sweep, len(s.runs.order))
	for i, id := range s.runs.order {
		runs[i] = s.runs.byID[id]
	}
	s.mu.Unlock()
	jobs := make([]JobView, len(runs))
	for i, sw := range runs {
		jobs[i] = s.jobView(sw)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

func (s *Server) handleGetRun(w http.ResponseWriter, r *http.Request) {
	sw, ok := s.lookup(s.runs, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobView(sw))
}

func (s *Server) handleCancelRun(w http.ResponseWriter, r *http.Request) {
	if sw, ok := s.cancelRecord(w, s.runs, "job", r.PathValue("id")); ok {
		writeJSON(w, http.StatusOK, s.jobView(sw))
	}
}

// resolveSweep expands a sweep spec under the cell bound and resolves
// every cell, validating the whole grid before any work is admitted.
func (s *Server) resolveSweep(ss spec.SweepSpec) ([]sweepCell, error) {
	runs, err := ss.Expand(s.opts.MaxSweepCells)
	if err != nil {
		return nil, err
	}
	return s.resolveCells(runs)
}

// resolveCells resolves every cell of a grid, failing on the first
// that does not resolve.
func (s *Server) resolveCells(runs []spec.RunSpec) ([]sweepCell, error) {
	cells := make([]sweepCell, 0, len(runs))
	for _, rs := range runs {
		res, err := s.resolveSpec(rs)
		if err != nil {
			return nil, fmt.Errorf("sweep cell %s/%s/%s: %w",
				machineName(rs.Machine), rs.Policy.ID(), rs.Workload.ID(), err)
		}
		cells = append(cells, sweepCell{resolved: res, view: cellIdentity(res)})
	}
	return cells, nil
}

// machineName is the display name of a possibly-nil machine reference.
func machineName(m *spec.Machine) string {
	if m == nil || m.Name == "" {
		return "baseline"
	}
	return m.Name
}

// cellIdentity derives a cell's static display fields from its
// canonical spec.
func cellIdentity(res *spec.Resolved) SweepCell {
	c := SweepCell{
		Machine:     res.Spec.Machine.Name,
		Policy:      res.Spec.Policy.ID(),
		Seed:        res.Spec.Seed,
		Fingerprint: res.Fingerprint,
	}
	if tr := res.Spec.Workload.Trace; tr != "" {
		c.Trace = tr
	} else {
		c.Workload = res.Spec.Workload.ID()
	}
	return c
}
