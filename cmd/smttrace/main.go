// Command smttrace records, inspects, and replays binary uop traces.
//
//	smttrace record -workload 4-MIX -uops 400000 -o 4mix.dwt
//	smttrace record -benchmarks gzip,mcf -seed 7 -o custom.dwt
//	smttrace info 4mix.dwt
//	smttrace replay 4mix.dwt -policy dwarn
//	smttrace replay 4mix.dwt -policy flush -machine deep -json
//
// `record` draws each thread's correct-path uop stream straight from
// the synthetic generators (no pipeline in the loop), so recording is
// fast and the trace is policy-independent. `replay` feeds a recorded
// trace back through the full simulator; the run is bit-identical to a
// live synthetic run of the same workload and seed, under any policy.
// To capture exactly the uops one live run consumed instead, use
// `smtsim -trace`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/isa"
	"dwarn/internal/obs"
	"dwarn/internal/out"
	"dwarn/internal/sim"
	"dwarn/internal/timeline"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// logger carries record/replay diagnostics as structured key=value
// lines on stderr, keeping stdout for the command's actual output.
// SMTTRACE_LOG=debug|warn|error|off overrides the default level.
var logger = obs.NewLogger(os.Stderr, logLevelFromEnv())

func logLevelFromEnv() obs.Level {
	if s := os.Getenv("SMTTRACE_LOG"); s != "" {
		if lvl, err := obs.ParseLevel(s); err == nil {
			return lvl
		}
	}
	return obs.LevelInfo
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: smttrace <command> [flags]

commands:
  record   record a synthetic workload's uop streams to a trace file
  info     print a trace file's metadata
  replay   run a simulation from a recorded trace

run 'smttrace <command> -h' for command flags`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smttrace:", err)
	os.Exit(1)
}

// splitFileArg allows the trace file to come before the flags
// (`smttrace replay t.dwt -policy flush`), which the flag package's
// stop-at-first-positional rule would otherwise forbid.
func splitFileArg(args []string) (string, []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

func cmdRecord(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	var (
		wlName  = fs.String("workload", "", "Table 2(b) workload name")
		benches = fs.String("benchmarks", "", "comma-separated benchmark names (custom workload)")
		solo    = fs.String("solo", "", "one benchmark alone")
		seed    = fs.Uint64("seed", sim.DefaultSeed, "random seed")
		uops    = fs.Int("uops", 400_000, "correct-path uops to record per thread")
		outPath = fs.String("o", "trace.dwt", "output file")
	)
	fs.Parse(args)

	var wl workload.Workload
	var err error
	switch {
	case *solo != "":
		wl = sim.SoloWorkload(*solo)
	case *benches != "":
		names := strings.Split(*benches, ",")
		wl, err = workload.Custom("custom:"+strings.Join(names, "+"), names)
	case *wlName != "":
		wl, err = workload.GetWorkload(*wlName)
	default:
		err = fmt.Errorf("record needs -workload, -benchmarks, or -solo")
	}
	if err != nil {
		fatal(err)
	}
	if *uops <= 0 {
		fatal(fmt.Errorf("-uops must be positive"))
	}

	start := time.Now()
	streams, err := wl.Generators(*seed)
	if err != nil {
		fatal(err)
	}
	w := trace.NewWriter(wl.Name, *seed)
	var u isa.Uop
	for _, s := range streams {
		w.Record(s)
		for i := 0; i < *uops; i++ {
			s.Next(&u)
		}
		s.Stop()
	}

	f, err := os.Create(*outPath)
	if err != nil {
		fatal(err)
	}
	n, err := w.WriteTo(f)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		fatal(err)
	}
	logger.Info("trace recorded",
		"file", *outPath, "workload", wl.Name, "seed", *seed,
		"threads", len(streams), "uops_per_thread", *uops, "bytes", n,
		"dur", time.Since(start).Round(time.Millisecond))
	fmt.Printf("recorded %s: %d threads × %d uops, %d bytes (%.2f bytes/uop)\n",
		*outPath, len(streams), *uops, n, float64(n)/float64(len(streams)**uops))
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit metadata as JSON")
	file, rest := splitFileArg(args)
	fs.Parse(rest)
	if file == "" && fs.NArg() == 1 {
		file = fs.Arg(0)
	}
	if file == "" || fs.NArg() > 1 {
		fatal(fmt.Errorf("info needs exactly one trace file"))
	}
	tr, err := trace.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	if *asJSON {
		type threadInfo struct {
			Benchmark string `json:"benchmark"`
			Uops      uint64 `json:"uops"`
			Base      string `json:"base"`
			Blocks    int    `json:"blocks"`
		}
		info := struct {
			Workload string       `json:"workload"`
			Seed     uint64       `json:"seed"`
			Digest   string       `json:"digest"`
			Threads  []threadInfo `json:"threads"`
		}{Workload: tr.Workload, Seed: tr.Seed, Digest: tr.Digest}
		for i := range tr.Threads {
			th := &tr.Threads[i]
			info.Threads = append(info.Threads, threadInfo{
				Benchmark: th.Meta.Benchmark,
				Uops:      th.Uops,
				Base:      fmt.Sprintf("%#x", th.Meta.Base),
				Blocks:    len(th.Meta.BlockStarts),
			})
		}
		if err := out.WriteJSON(os.Stdout, info); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("workload: %s  seed: %d  threads: %d  uops: %d\n", tr.Workload, tr.Seed, len(tr.Threads), tr.Uops())
	fmt.Printf("digest:   %s\n", tr.Digest)
	for i := range tr.Threads {
		th := &tr.Threads[i]
		fmt.Printf("  t%d %-8s uops %-8d base %#x  blocks %d  code %dB hot %dB mid %dB\n",
			i, th.Meta.Benchmark, th.Uops, th.Meta.Base, len(th.Meta.BlockStarts),
			th.Meta.Footprint.CodeBytes, th.Meta.Footprint.HotBytes, th.Meta.Footprint.MidBytes)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	var (
		policy  = fs.String("policy", "dwarn", "fetch policy: "+strings.Join(core.Policies(), ", "))
		machine = fs.String("machine", "baseline", "machine: baseline, small, deep")
		warmup  = fs.Int64("warmup", 60000, "warmup cycles")
		measure = fs.Int64("measure", 150000, "measured cycles")
		asJSON  = fs.Bool("json", false, "emit the full result record as JSON")
		tlPath  = fs.String("timeline", "", "sample interval frames during the measured window and write them to this file (.csv extension → CSV, otherwise JSONL)")
		tlIvl   = fs.Int64("timeline-interval", timeline.DefaultIntervalCycles, "cycles per timeline interval with -timeline")
	)
	file, rest := splitFileArg(args)
	fs.Parse(rest)
	if file == "" && fs.NArg() == 1 {
		file = fs.Arg(0)
	}
	if file == "" || fs.NArg() > 1 {
		fatal(fmt.Errorf("replay needs exactly one trace file"))
	}
	tr, err := trace.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	cfg, err := config.ByName(*machine)
	if err != nil {
		fatal(err)
	}

	var tlCfg *timeline.Config
	if *tlPath != "" {
		tlCfg = &timeline.Config{IntervalCycles: *tlIvl}
	}

	start := time.Now()
	res, err := sim.Run(sim.Options{
		Config:        cfg,
		Policy:        *policy,
		Trace:         tr,
		WarmupCycles:  *warmup,
		MeasureCycles: *measure,
		Timeline:      tlCfg,
	})
	if err != nil {
		logger.Error("replay failed", "file", file, "policy", *policy, "err", err)
		fatal(err)
	}
	if *tlPath != "" {
		writeTimeline(*tlPath, res.Timeline)
	}
	logger.Info("replay finished",
		"file", file, "workload", tr.Workload, "digest", tr.Digest,
		"policy", res.Policy, "machine", *machine,
		"cycles", res.Cycles, "throughput", res.Throughput,
		"dur", time.Since(start).Round(time.Millisecond))
	if *asJSON {
		if err := out.WriteJSON(os.Stdout, res); err != nil {
			fatal(err)
		}
		return
	}
	out.PrintResult(os.Stdout, res)
}

// writeTimeline writes a replay's interval frames to path: CSV when the
// file name ends in .csv, JSONL otherwise. A trace replay's frames are
// bit-identical to a live run of the same workload and seed under the
// same policy — the property the timeline determinism tests pin down.
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
	logger.Info("timeline written", "file", path, "frames", len(tl.Frames), "interval", tl.IntervalCycles)
}
