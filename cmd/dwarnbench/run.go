package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dwarn/internal/obs"
)

// runConfig selects how one workload is run.
type runConfig struct {
	seed uint64
	// seconds > 0 bounds the timed run by time (split evenly between
	// the untraced and traced phases when tracing); otherwise the run
	// does ops operations per phase.
	seconds float64
	ops     int
	trace   bool
	// traceDir keeps the traced run's spans and CPU profile; empty
	// discards them with the scratch directory.
	traceDir string
	// spin burns this many spin iterations per simulated cycle in every
	// engine policy (the self-test's injected slowdown).
	spin int
	// setups overrides setupRuns (tests).
	setups int
}

// runWorkload measures one workload in this process: set-up, the
// untraced closed loop, optionally the traced one, then the
// correctness gate.
func runWorkload(root string, w *workload, cfg runConfig) (*Report, error) {
	scratch := filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	h := &harness{w: w, seed: cfg.seed, scratch: scratch, spin: cfg.spin, ref: newRefKernel()}

	opsPer, dur := 0, time.Duration(0)
	if cfg.seconds > 0 {
		dur = time.Duration(cfg.seconds * float64(time.Second))
		if cfg.trace {
			dur /= 2
		}
	} else {
		ops := w.ops
		if cfg.ops > 0 {
			ops = cfg.ops
		}
		opsPer = max(ops/w.clients, 1)
	}

	n := setupRuns
	if cfg.setups > 0 {
		n = cfg.setups
	}
	setupRef := h.ref.newRef()
	setups, e, err := h.setup(n, setupRef)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	a := h.runPhase(e, nil, h.ref.newRef(), 0, 0, opsPer, dur)
	if err := e.close(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	rep := &Report{Workload: w.name, Seed: cfg.seed, Traced: cfg.trace, Attempted: a.ops, Failed: a.failed,
		RefWallMS: median(a.ref.wall), RefCPUMS: median(a.ref.cpu)}
	if cfg.trace {
		lm, b, err := h.traced(cfg, a, opsPer, dur)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", w.name, err)
		}
		rep.Metrics = lm
		rep.Attempted += b.ops
		rep.Failed += b.failed
	} else {
		rep.Metrics, rep.Raw, rep.Tail = endToEndMetrics(setups, setupRef, a)
	}

	h.verify(root)
	if rep.Digest, err = h.digest(0); err != nil {
		h.problem("digest: %v", err)
	}
	rep.Problems = h.problems
	rep.Correct = rep.Attempted > 0 && rep.Failed == 0 && len(h.problems) == 0
	return rep, nil
}

// traced runs the traced phase on a fresh environment wired with the
// timing decorators, and turns what it measured into per-layer
// metrics. trace.overhead_pct compares its throughput with the
// untraced phase a.
func (h *harness) traced(cfg runConfig, a phaseStats, opsPer int, dur time.Duration) (map[string]Metric, phaseStats, error) {
	var b phaseStats
	tr := newTracer()
	dir, err := h.newDir("traced")
	if err != nil {
		return nil, b, err
	}
	e, err := h.w.newEnv(h, tr, dir)
	if err != nil {
		return nil, b, err
	}
	if err := h.warm(e, 1, 0); err != nil {
		e.close()
		return nil, b, err
	}
	tr.reset()

	artifacts := cfg.traceDir
	if artifacts == "" {
		artifacts = dir
	} else if err := os.MkdirAll(artifacts, 0o755); err != nil {
		e.close()
		return nil, b, err
	}
	profPath := filepath.Join(artifacts, h.w.name+".cpu.pprof")

	regs := []*obs.Registry{obs.Default, e.registry()}
	before, err := scrape(regs...)
	if err != nil {
		e.close()
		return nil, b, err
	}
	ref := h.ref.newRef()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	prof, err := startProfile(profPath)
	if err != nil {
		e.close()
		return nil, b, err
	}
	b = h.runPhase(e, tr, ref, 1, phaseBBase, opsPer, dur)
	if err := prof.stop(); err != nil {
		e.close()
		return nil, b, err
	}
	runtime.ReadMemStats(&mem1)
	after, err := scrape(regs...)
	if err != nil {
		e.close()
		return nil, b, err
	}
	probe, err := journalProbe(dir, 200)
	if cerr := e.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, b, err
	}
	shares, err := cpuSharesOf(profPath)
	if err != nil {
		return nil, b, err
	}
	if cfg.traceDir != "" {
		if err := tr.writeSpans(filepath.Join(cfg.traceDir, "spans.jsonl")); err != nil {
			return nil, b, err
		}
	}
	m, err := layerMetrics(layerInput{
		b:        b,
		tr:       tr,
		delta:    diffScrapes(before, after),
		shares:   shares,
		journal:  probe,
		mem0:     mem0,
		mem1:     mem1,
		model:    h.modelRefs(),
		overhead: 100 * ratio(a.scaledThroughput()-b.scaledThroughput(), a.scaledThroughput()),
		workers:  gomaxprocs(),
	})
	return m, b, err
}
