// Command dwarnd serves the SMT simulator over HTTP: submit single
// runs and policy × workload sweeps into one shared parallel execution
// layer, poll status (sweeps report partial per-cell progress), follow
// a sweep's SSE completion stream, cancel cooperatively, and let the
// content-addressed result store absorb repeated work. See README.md for the API walkthrough and DESIGN.md
// §dwarnd for the architecture.
//
// Every request is logged as a structured key=value line with a
// request id, and GET /metrics serves the full Prometheus exposition
// (HTTP, queue, executor, cache, and engine series). The request id is
// also the trace id: an inbound X-Request-ID is honoured, and with
// -log-level debug the same id follows the request through the exec
// worker's cell logs into the sim run's own log line. Runs whose spec
// sets "timeline" sample per-interval frames: GET /v2/runs/{id}/timeline
// returns them, and the sweep SSE stream interleaves live "frame"
// events as intervals close inside running cells. The -admin flag
// opens a second (typically loopback) port carrying the operational
// surface: /metrics, /debug/pprof/*, /healthz, and /buildinfo.
//
// Examples:
//
//	dwarnd -addr :8080
//	dwarnd -addr :8080 -admin localhost:6060 -log-level debug
//	dwarnd -spec examples/specs/table4-sweep.json   # pre-warm the cache
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//	curl -s -X POST localhost:8080/v2/runs \
//	    -d '{"policy":{"name":"dwarn"},"workload":{"name":"4-MIX"}}'
//	curl -s localhost:8080/v2/runs/sim-000001
//	curl -s -X POST localhost:8080/v2/sweeps -d '{"workloads":[{"name":"4-MIX"}]}'
//	curl -s -X POST localhost:8080/v2/sweeps \
//	    -d '{"policies":[{"name":"dwarn","params":{"warn":[1,2,4]}}],"workloads":[{"name":"2-MEM"}]}'
//	curl -sN localhost:8080/v2/sweeps/sweep-000001/events   # SSE progress
//	curl -s -X DELETE localhost:8080/v2/sweeps/sweep-000001 # cancel
//	curl -s -X POST localhost:8080/v2/runs \
//	    -d '{"policy":{"name":"dwarn"},"workload":{"name":"4-MIX"},"timeline":{}}'
//	curl -s localhost:8080/v2/runs/sim-000001/timeline      # interval frames
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"dwarn/internal/chaos"
	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/fabric"
	"dwarn/internal/journal"
	"dwarn/internal/obs"
	"dwarn/internal/service"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "local simulation slots (0 with -fabric = pure coordinator: every cell waits for a remote -worker; a -worker needs at least 1)")
		queueDepth   = flag.Int("queue", 256, "runs that may wait for an executor slot before submissions fail fast with 503")
		cacheEntries = flag.Int("cache", 4096, "in-memory result tier entries")
		maxCycles    = flag.Int64("max-cycles", 5_000_000, "per-request cycle cap (warmup and measure each; <0 = uncapped)")
		maxCells     = flag.Int("max-sweep-cells", 1024, "largest sweep expansion one request may fan out")
		maxSweeps    = flag.Int("max-active-sweeps", 16, "concurrently executing sweeps before submissions fail fast with 503")
		specPath     = flag.String("spec", "", "submit this JSON spec file (run or sweep) at startup to pre-warm the cache")
		storeDir     = flag.String("store", "", "back the result cache with this durable result directory (shared layout with smtsim -store)")
		journalPath  = flag.String("journal", "", "append-only submission journal for restart recovery (default <store>/journal.log when -store is set; empty without -store = journaling off)")
		authToken    = flag.String("auth-token", "", "require this bearer token on every request except /healthz and /metrics (empty = open)")
		rateLimit    = flag.Float64("rate-limit", 0, "per-client request rate limit in requests/sec, 429 + Retry-After beyond it (0 = unlimited)")
		rateBurst    = flag.Int("rate-burst", 0, "per-client burst allowance for -rate-limit (0 = derived from the rate)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "server-side handling deadline for non-streaming requests (0 = none)")
		fabricOn     = flag.Bool("fabric", true, "serve the distributed sweep fabric under /v2/fabric (remote dwarnd -worker processes may join)")
		leaseTTL     = flag.Duration("lease-ttl", 0, "fabric lease TTL: how long a worker's cell survives missed heartbeats before requeue (0 = default 15s)")
		workerMode   = flag.Bool("worker", false, "run as a fabric worker: pull cells from -coordinator instead of serving HTTP")
		coordURL     = flag.String("coordinator", "", "coordinator base URL for -worker mode (e.g. http://host:8080)")
		workerName   = flag.String("worker-name", "", "worker label in fabric status (default host-pid)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max time to drain runs and sweeps on shutdown")
		adminAddr    = flag.String("admin", "", "serve the admin mux (/metrics, /debug/pprof/*, /healthz, /buildinfo) on this address (e.g. localhost:6060; empty = disabled)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn, error, off")
	)
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnd:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	// Operational fault injection: DWARN_CHAOS arms the chaos seam for
	// crash/torn-write drills (see internal/chaos and
	// scripts/chaos_service.sh). Unset, the seam stays nil and free.
	if spec := os.Getenv("DWARN_CHAOS"); spec != "" {
		h, err := chaos.FromEnv(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarnd:", err)
			os.Exit(2)
		}
		chaos.Set(h)
		logger.Warn("chaos handler armed", "spec", spec)
	}

	if *workerMode {
		os.Exit(runWorker(logger, *coordURL, *workerName, *workers, *cacheEntries, *storeDir, *authToken, *adminAddr))
	}

	opts := service.Options{
		Workers:         *workers,
		QueueDepth:      *queueDepth,
		CacheEntries:    *cacheEntries,
		MaxCycles:       *maxCycles,
		MaxSweepCells:   *maxCells,
		MaxActiveSweeps: *maxSweeps,
		AuthToken:       *authToken,
		RateLimit:       *rateLimit,
		RateBurst:       *rateBurst,
		RequestTimeout:  *reqTimeout,
		Logger:          logger,
	}
	if *workers <= 0 {
		if !*fabricOn {
			fmt.Fprintln(os.Stderr, "dwarnd: -workers 0 needs -fabric: no local slot and no remote worker could run a cell")
			os.Exit(2)
		}
		opts.Workers = -1 // no local slots: a pure coordinator
	}
	if opts.Store, opts.Checkpoints, err = openStores(logger, *storeDir); err != nil {
		logger.Error("store open", "dir", *storeDir, "err", err)
		os.Exit(1)
	}
	if *journalPath == "" && *storeDir != "" {
		*journalPath = filepath.Join(*storeDir, "journal.log")
	}
	if *journalPath != "" {
		j, recs, err := journal.Open(*journalPath)
		if err != nil {
			logger.Error("journal open", "path", *journalPath, "err", err)
			os.Exit(1)
		}
		if j.Torn() {
			logger.Warn("journal had a torn tail; truncated", "path", *journalPath)
		}
		logger.Info("journal open", "path", *journalPath, "replayed", len(recs))
		opts.Journal = j
		opts.Recovered = recs
	}
	if *fabricOn {
		opts.Fabric = &service.FabricOptions{LeaseTTL: *leaseTTL}
	}
	srv := service.New(opts)
	serveAdmin(logger, *adminAddr, srv.MetricsHandler())

	if *specPath != "" {
		f, err := spec.LoadFile(*specPath)
		if err != nil {
			logger.Error("spec load", "path", *specPath, "err", err)
			os.Exit(1)
		}
		st, err := srv.Preload(f)
		if err != nil {
			logger.Error("preload", "path", *specPath, "err", err)
			os.Exit(1)
		}
		logger.Info("preloading", "sweep", st.ID, "cells", st.Total, "done", st.Done, "path", *specPath)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queueDepth, "cache", *cacheEntries)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
	}

	// Stop accepting connections, then drain queued and in-flight work.
	logger.Info("shutting down", "drain_timeout", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Warn("http shutdown", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Error("drain", "err", err)
		os.Exit(1)
	}
	logger.Info("drained cleanly")
}

// runWorker is `dwarnd -worker -coordinator=URL`: the same binary as a
// pull-based fabric worker. It pulls cell leases from the coordinator,
// runs them on its own executor (-workers local slots, a -cache result
// tier over -store, checkpoint tiers ending in the coordinator's), and
// pushes results back; SIGINT/SIGTERM abandons
// in-flight cells silently (no completion, no more heartbeats) so the
// coordinator's lease TTL requeues them on a healthy worker. With
// -store the worker reads and writes the same durable result directory
// as the coordinator, sharing one cache identity through the
// filesystem. -auth-token rides on every coordinator RPC; -admin serves
// the worker's own /metrics (executor and RPC failure series).
func runWorker(logger *obs.Logger, coordinator, name string, workers, cacheEntries int, storeDir, authToken, adminAddr string) int {
	if coordinator == "" {
		fmt.Fprintln(os.Stderr, "dwarnd: -worker requires -coordinator=URL")
		return 2
	}
	if workers <= 0 {
		fmt.Fprintln(os.Stderr, "dwarnd: -worker needs -workers >= 1: a worker runs its cells on local slots")
		return 2
	}
	durable, ckpts, err := openStores(logger, storeDir)
	if err != nil {
		logger.Error("store open", "dir", storeDir, "err", err)
		return 1
	}
	results := exec.Store(store.NewMem[*sim.Result](cacheEntries, 0, nil))
	if durable != nil {
		results = store.Chain[*sim.Result]{results, durable}
	}
	reg := obs.NewRegistry()
	ex := exec.New(exec.Options{
		Workers:  workers,
		Store:    results,
		Registry: reg,
		Logger:   logger,
		// Last tier: pull checkpoints the fleet already warmed from the
		// coordinator, and push the ones this worker builds.
		Checkpoints: append(ckpts, fabric.NewRemoteCkptStore(coordinator, authToken, nil)),
	})
	serveAdmin(logger, adminAddr, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	}))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: coordinator,
		Name:        name,
		Executor:    ex,
		Logger:      logger,
		AuthToken:   authToken,
		Registry:    reg,
	})
	logger.Info("fabric worker starting", "coordinator", coordinator, "workers", workers)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		logger.Error("fabric worker", "err", err)
		return 1
	}
	logger.Info("fabric worker stopped")
	return 0
}

// openStores opens the durable result directory under -store (nil
// without one) and the checkpoint tiers: a bounded in-memory tier,
// then DIR/ckpt, so a restarted process forks warm groups straight
// from disk.
func openStores(logger *obs.Logger, dir string) (exec.Store, ckpt.Chain, error) {
	ckpts := ckpt.Chain{ckpt.NewMemStore(0)}
	if dir == "" {
		return nil, ckpts, nil
	}
	ds, err := exec.NewDirStore(dir)
	if err != nil {
		return nil, nil, err
	}
	if cds, err := ckpt.NewDirStore(filepath.Join(dir, "ckpt")); err != nil {
		logger.Warn("checkpoint store open failed; checkpoints stay in-memory", "dir", dir, "err", err)
	} else {
		ckpts = append(ckpts, cds)
	}
	return ds, ckpts, nil
}

// serveAdmin serves the operational surface — /metrics, /healthz,
// /buildinfo and /debug/pprof/* — on its own (typically loopback)
// address, so diagnostics are never exposed on the service port. An
// empty addr disables it.
func serveAdmin(logger *obs.Logger, addr string, metrics http.Handler) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/buildinfo", handleBuildInfo)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		logger.Info("admin listening", "addr", addr)
		if err := http.ListenAndServe(addr, mux); err != nil {
			logger.Error("admin server", "err", err)
		}
	}()
}

// handleBuildInfo reports how this binary was built: Go version, module
// path and version, and the embedded VCS stamps when present.
func handleBuildInfo(w http.ResponseWriter, r *http.Request) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		http.Error(w, `{"error":"no build info"}`, http.StatusNotFound)
		return
	}
	out := struct {
		GoVersion string            `json:"go_version"`
		Path      string            `json:"path"`
		Version   string            `json:"version"`
		Settings  map[string]string `json:"settings,omitempty"`
	}{
		GoVersion: bi.GoVersion,
		Path:      bi.Main.Path,
		Version:   bi.Main.Version,
		Settings:  map[string]string{},
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision", "vcs.time", "vcs.modified", "GOOS", "GOARCH":
			out.Settings[s.Key] = s.Value
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}
