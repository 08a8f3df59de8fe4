// Command smtsim runs SMT simulations — machine × fetch policy ×
// workload — and prints per-thread and aggregate statistics. Runs are
// selected by flags, or declaratively with -spec: a JSON spec file
// holding one run or a whole sweep grid (see examples/specs/), each
// cell reported with its content-addressed fingerprint. Sweep cells
// fan out over the shared execution layer (-parallel bounds the worker
// pool); with -store DIR every finished cell persists to a durable
// result store, so an interrupted sweep rerun with the same -store
// resumes by skipping everything already simulated. One failing cell
// is reported in place and never aborts the rest of the grid.
//
// Examples:
//
//	smtsim -policy dwarn -workload 4-MIX
//	smtsim -policy flush -workload 8-MEM -machine deep -measure 300000
//	smtsim -solo mcf
//	smtsim -policy dwarn -workload 4-MIX -json
//	smtsim -policy icount -workload 2-MEM -trace run.dwt    # record a uop trace
//	smtsim -spec examples/specs/dwarn-warn-grid.json        # run a sweep spec
//	smtsim -spec examples/specs/parallel-grid.json -parallel 8 -store /tmp/sweep
//	smtsim -policy dwarn -workload 4-MIX -metrics run.prom  # dump metrics
//	smtsim -policy dwarn -workload 4-MIX -timeline out.jsonl  # interval frames
//	smtsim -policy dwarn -workload 4-MIX -timeline out.csv -timeline-interval 5000
//	smtsim -policy flush -workload 8-MEM -check 500         # in-loop invariant checks
//
// A trace recorded with -trace replays through `smttrace replay` under
// any policy, reproducing this run bit for bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dwarn/internal/ckpt"
	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/out"
	"dwarn/internal/prof"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
	"dwarn/internal/timeline"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

func main() {
	var (
		policy    = flag.String("policy", "dwarn", "fetch policy: "+strings.Join(core.Policies(), ", "))
		wlName    = flag.String("workload", "4-MIX", "Table 2(b) workload name")
		solo      = flag.String("solo", "", "run one benchmark alone instead of a workload")
		machine   = flag.String("machine", "baseline", "machine: baseline, small, deep")
		seed      = flag.Uint64("seed", sim.DefaultSeed, "random seed")
		warmup    = flag.Int64("warmup", 60000, "warmup cycles")
		measure   = flag.Int64("measure", 150000, "measured cycles")
		asJSON    = flag.Bool("json", false, "emit the full result record as JSON")
		tracePath = flag.String("trace", "", "record the run's uop streams to this trace file")
		specPath  = flag.String("spec", "", "run a JSON spec file (one run or a sweep grid) instead of the flag selection")
		maxCells  = flag.Int("max-cells", spec.DefaultMaxCells, "largest sweep expansion a -spec file may request")
		parallel  = flag.Int("parallel", 0, "max concurrent sweep cells with -spec (0 = GOMAXPROCS)")
		storeDir  = flag.String("store", "", "persist -spec cell results in this directory; rerunning resumes past stored cells")
		ckptOn    = flag.Bool("ckpt", true, "with -spec, fork sweep cells sharing a (workload, seed) group from one checkpoint of calibrated program cores instead of calibrating each cold")
		ckptDir   = flag.String("ckpt-dir", "", "persist checkpoints in this directory (implies -ckpt); rerunning forks even the first cell of each group")
		listWork  = flag.Bool("list", false, "list workloads and benchmarks, then exit")
		metrics   = flag.String("metrics", "", "after the run or sweep, dump the metrics registry to this file in Prometheus text format")
		tlPath    = flag.String("timeline", "", "sample interval frames during the measured window and write them to this file (.csv extension → CSV, otherwise JSONL)")
		tlIvl     = flag.Int64("timeline-interval", timeline.DefaultIntervalCycles, "cycles per timeline interval with -timeline")
		tlFrames  = flag.Int("timeline-frames", timeline.DefaultMaxFrames, "most recent interval frames retained with -timeline")
		checkN    = flag.Int64("check", 0, "diagnostic: check the pipeline's invariants every N cycles of the run (or of every -spec cell that simulates) and fail it on a violation (0 = off; results are unchanged)")
	)
	profFlags := prof.Register()
	flag.Parse()

	stopProf, err := profFlags.Start()
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *checkN < 0 {
		fatal(fmt.Errorf("-check must be >= 0, got %d", *checkN))
	}
	if *specPath != "" {
		ok := runSpecFile(*specPath, *maxCells, *parallel, *storeDir, *ckptDir, *ckptOn, *asJSON, *checkN)
		dumpMetrics(*metrics)
		if !ok {
			stopProf()
			os.Exit(1)
		}
		return
	}

	if *listWork {
		fmt.Println("workloads:")
		for _, wl := range workload.Workloads() {
			fmt.Printf("  %-6s %v\n", wl.Name, wl.Benchmarks)
		}
		fmt.Println("benchmarks:", strings.Join(workload.Names(), ", "))
		fmt.Println("policies:  ", strings.Join(core.Policies(), ", "))
		return
	}

	cfg, err := config.ByName(*machine)
	if err != nil {
		fatal(err)
	}

	var wl workload.Workload
	if *solo != "" {
		wl = sim.SoloWorkload(*solo)
	} else {
		wl, err = workload.GetWorkload(*wlName)
		if err != nil {
			fatal(err)
		}
	}

	var rec *trace.Writer
	if *tracePath != "" {
		rec = trace.NewWriter(wl.Name, *seed)
	}

	var tlCfg *timeline.Config
	if *tlPath != "" {
		tlCfg = &timeline.Config{IntervalCycles: *tlIvl, MaxFrames: *tlFrames}
	}

	res, err := sim.Run(sim.Options{
		Config:        cfg,
		Policy:        *policy,
		Workload:      wl,
		Record:        rec,
		Seed:          *seed,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Timeline:      tlCfg,
		CheckEvery:    *checkN,
	})
	if err != nil {
		fatal(err)
	}
	if *tlPath != "" {
		writeTimeline(*tlPath, res.Timeline)
	}

	if rec != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal(err)
		}
		n, err := rec.WriteTo(f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "smtsim: recorded %s (%d bytes)\n", *tracePath, n)
	}

	if *asJSON {
		if err := out.WriteJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
		dumpMetrics(*metrics)
		return
	}
	out.PrintResult(os.Stdout, res)
	dumpMetrics(*metrics)
}

// writeTimeline writes a run's interval frames to path: CSV when the
// file name ends in .csv (one row per thread per frame), JSONL
// otherwise (one frame per line).
func writeTimeline(path string, tl *timeline.Timeline) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if strings.HasSuffix(path, ".csv") {
		err = tl.WriteCSV(f)
	} else {
		err = tl.WriteJSONL(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "smtsim: timeline written to %s (%d frames, %d cycles/interval)\n",
		path, len(tl.Frames), tl.IntervalCycles)
}

// dumpMetrics writes the process-wide registry — the engine's run
// snapshots and, after a -spec sweep, the execution layer's series —
// as Prometheus text exposition. No-op without -metrics.
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
	fmt.Fprintf(os.Stderr, "smtsim: metrics written to %s\n", path)
}

// specCell is the JSON record emitted per spec cell: the canonical
// identity plus the full result (and relative-IPC metrics when the
// spec asks for baselines). A failing cell reports its error in place;
// its siblings still carry results.
type specCell struct {
	Fingerprint string         `json:"fingerprint"`
	Spec        spec.RunSpec   `json:"spec"`
	Result      *sim.Result    `json:"result,omitempty"`
	Summary     *stats.Summary `json:"summary,omitempty"`
	Cached      bool           `json:"cached,omitempty"`
	Error       string         `json:"error,omitempty"`
}

// runSpecFile executes every cell of a spec file through the shared
// execution layer — parallel workers bounded, memoised by fingerprint,
// reported in expansion order regardless of completion order — and
// reports whether every cell succeeded. Trace references in the file
// resolve as filesystem paths. Interrupting the sweep (SIGINT/SIGTERM)
// stops cells cooperatively; with -store the finished prefix survives
// for the next run to resume from. checkEvery > 0 runs the pipeline
// invariant checks in every cell that simulates.
func runSpecFile(path string, maxCells, parallel int, storeDir, ckptDir string, ckptOn, asJSON bool, checkEvery int64) bool {
	f, err := spec.LoadFile(path)
	if err != nil {
		fatal(err)
	}
	runs, err := f.Runs(maxCells)
	if err != nil {
		fatal(err)
	}
	resolved := make([]*spec.Resolved, len(runs))
	for i, rs := range runs {
		if resolved[i], err = rs.Resolve(spec.FileTraces{}); err != nil {
			fatal(err)
		}
	}

	var store exec.Store
	if storeDir != "" {
		ds, err := exec.NewDirStore(storeDir)
		if err != nil {
			fatal(err)
		}
		store = ds
	}
	var ckpts ckpt.Store
	if ckptOn || ckptDir != "" {
		chain := ckpt.Chain{ckpt.NewMemStore(0)}
		if ckptDir != "" {
			cds, err := ckpt.NewDirStore(ckptDir)
			if err != nil {
				fatal(err)
			}
			chain = append(chain, cds)
		}
		ckpts = chain
	}
	exOpts := exec.Options{Workers: parallel, Store: store, Checkpoints: ckpts}
	if checkEvery > 0 {
		// The executor's Run seam: the default cell run plus the checks.
		exOpts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			o := res.Options
			o.CheckEvery = checkEvery
			return sim.RunContext(ctx, o)
		}
	}
	ex := exec.New(exOpts)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	progress := func(ev exec.Event) {
		if !ev.Terminal() {
			return
		}
		note := ev.State
		if ev.Err != nil {
			note = fmt.Sprintf("%s (%v)", ev.State, ev.Err)
		}
		fmt.Fprintf(os.Stderr, "smtsim: [%d/%d] %s/%s/%s seed=%d %s\n",
			ev.Completed, ev.Total,
			resolved[ev.Index].Spec.Machine.Name, resolved[ev.Index].Spec.Policy.ID(),
			resolved[ev.Index].Spec.Workload.ID(), resolved[ev.Index].Spec.Seed, note)
	}
	results := ex.Execute(ctx, resolved, progress)

	ok := true
	var cells []specCell
	for i, r := range results {
		if r.Err != nil {
			ok = false
		}
		if asJSON {
			c := specCell{Fingerprint: r.Fingerprint, Spec: resolved[i].Spec, Result: r.Result, Summary: r.Summary, Cached: r.Cached}
			if r.Err != nil {
				c.Error = r.Err.Error()
			}
			cells = append(cells, c)
			continue
		}
		if r.Err != nil {
			fmt.Printf("%s/%s/%s seed=%d fingerprint=%s\n",
				resolved[i].Spec.Machine.Name, resolved[i].Spec.Policy.ID(), resolved[i].Spec.Workload.ID(),
				resolved[i].Spec.Seed, r.Fingerprint[:12])
			fmt.Printf("error: %v\n\n", r.Err)
			continue
		}
		// The digest is the cell's behavioural identity (bit-identical
		// iff the simulation behaved identically) — the line a
		// distributed run is diffed against a serial one with.
		fmt.Printf("%s/%s/%s seed=%d fingerprint=%s digest=%s\n",
			resolved[i].Spec.Machine.Name, resolved[i].Spec.Policy.ID(), resolved[i].Spec.Workload.ID(),
			resolved[i].Spec.Seed, r.Fingerprint[:12], r.Result.CounterDigest()[:16])
		out.PrintResult(os.Stdout, r.Result)
		if r.Summary != nil {
			fmt.Printf("baselines: Hmean %.3f  weighted speedup %.3f\n", r.Summary.Hmean, r.Summary.WeightedSpeedup)
		}
		fmt.Println()
	}
	if asJSON {
		if err := out.WriteJSON(os.Stdout, cells); err != nil {
			fatal(err)
		}
	}
	return ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smtsim:", err)
	os.Exit(1)
}
