// Command experiments regenerates the paper's tables and figures from
// the simulator, printing each as an aligned text table or, with
// -json, as machine-readable JSON (the exp.Table shape). With -spec it
// instead runs an arbitrary spec grid (a JSON run or sweep file, see
// examples/specs/) and renders one generic results table; a failing
// cell renders an error column while the rest of the grid reports.
// All simulations fan out over the shared execution layer: -parallel
// bounds the worker pool (0 = GOMAXPROCS), and grid cells shared
// between artifacts are simulated once.
//
// Examples:
//
//	experiments                     # regenerate everything
//	experiments -exp fig1a          # one artifact
//	experiments -exp fig3 -measure 300000 -warmup 120000
//	experiments -exp table4 -json   # machine-readable output
//	experiments -spec examples/specs/dwarn-warn-grid.json
//	experiments -parallel 8         # one worker per core
//
// See DESIGN.md for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exp"
	"dwarn/internal/obs"
	"dwarn/internal/out"
	"dwarn/internal/prof"
	"dwarn/internal/spec"
)

func main() {
	var (
		expID    = flag.String("exp", "all", "experiment id or 'all': "+strings.Join(exp.Experiments, ", "))
		specPath = flag.String("spec", "", "run a JSON spec file (one run or a sweep grid) instead of a named experiment")
		seed     = flag.Uint64("seed", 0, "random seed (0 = default)")
		warmup   = flag.Int64("warmup", 0, "warmup cycles per run (0 = default)")
		measure  = flag.Int64("measure", 0, "measured cycles per run (0 = default)")
		par      = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		ckptOn   = flag.Bool("ckpt", true, "fork grid cells sharing a (workload, seed) group from one checkpoint of calibrated program cores")
		ckptDir  = flag.String("ckpt-dir", "", "persist checkpoints in this directory (implies -ckpt), shared across invocations")
		asJSON   = flag.Bool("json", false, "emit JSON instead of aligned text tables")
		logLevel = flag.String("log-level", "info", "stderr log verbosity: debug, info, warn, error, off")
		metrics  = flag.String("metrics", "", "after all experiments, dump the metrics registry to this file in Prometheus text format")
	)
	profFlags := prof.Register()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fatal(err)
	}
	// Tables go to stdout; timing and progress diagnostics go to stderr
	// as structured key=value lines, so piped table output stays clean.
	logger := obs.NewLogger(os.Stderr, level)

	var ckpts ckpt.Store
	if *ckptOn || *ckptDir != "" {
		chain := ckpt.Chain{ckpt.NewMemStore(0)}
		if *ckptDir != "" {
			cds, err := ckpt.NewDirStore(*ckptDir)
			if err != nil {
				fatal(err)
			}
			chain = append(chain, cds)
		}
		ckpts = chain
	}
	r := exp.NewRunner(exp.Config{
		Seed:          *seed,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Parallelism:   *par,
		Checkpoints:   ckpts,
	})

	if *specPath != "" {
		f, err := spec.LoadFile(*specPath)
		if err != nil {
			fatal(err)
		}
		cells, err := f.Runs(0)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		t, err := r.RunSpecs(cells)
		if err != nil {
			fatal(err)
		}
		logger.Info("spec done", "path", *specPath, "cells", len(cells), "dur", time.Since(start).Round(time.Millisecond))
		dumpMetrics(*metrics)
		if *asJSON {
			if err := out.WriteJSON(os.Stdout, []*exp.Table{t}); err != nil {
				fatal(err)
			}
			return
		}
		fmt.Println(t.Render())
		return
	}

	ids := exp.Experiments
	if *expID != "all" {
		ids = strings.Split(*expID, ",")
	}
	var all []*exp.Table
	for _, id := range ids {
		id = strings.TrimSpace(id)
		logger.Debug("experiment start", "exp", id)
		start := time.Now()
		tables, err := r.Run(id)
		if err != nil {
			fatal(err)
		}
		logger.Info("experiment done", "exp", id, "tables", len(tables), "dur", time.Since(start).Round(time.Millisecond))
		if *asJSON {
			all = append(all, tables...)
			continue
		}
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		fmt.Printf("(%s finished in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	dumpMetrics(*metrics)
	if *asJSON {
		if err := out.WriteJSON(os.Stdout, all); err != nil {
			fatal(err)
		}
	}
}

// dumpMetrics writes obs.Default — the engine's per-run snapshots and
// the shared executor's series — as Prometheus text. No-op without
// -metrics.
func dumpMetrics(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	err = obs.Default.WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
