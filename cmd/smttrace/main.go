// Command smttrace records and inspects binary uop traces.
//
//	smttrace record -workload 4-MIX -uops 400000 -o 4mix.dwt
//	smttrace record -benchmarks gzip,mcf -seed 7 -o custom.dwt
//	smttrace info 4mix.dwt
//
// `record` draws each thread's correct-path uop stream straight from
// the synthetic generators (no pipeline in the loop), so recording is
// fast and the trace is policy-independent. To capture exactly the
// uops one live run consumed instead, use `smtsim -trace`. A trace
// replays through `smtsim -spec` with a trace-workload run spec (see
// examples/specs/trace-replay.json); the run is bit-identical to a
// live synthetic run of the same workload and seed, under any policy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dwarn/internal/isa"
	"dwarn/internal/out"
	"dwarn/internal/sim"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		cmdRecord(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: smttrace <command> [flags]

commands:
  record   record a synthetic workload's uop streams to a trace file
  info     print a trace file's metadata

run 'smttrace <command> -h' for command flags`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smttrace:", err)
	os.Exit(1)
}

// splitFileArg allows the trace file to come before the flags
// (`smttrace info t.dwt -json`), which the flag package's
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
