// Command dwarnbench is the repository's benchmark: four workloads —
// the cycle engine alone, short sweeps through the executor, and runs
// and sweeps through an in-process dwarnd — measured end to end, with a
// traced mode that splits the time by layer and a correctness gate that
// checks every run's results.
//
// From cmd/dwarnbench (or via bench.sh from the repository root):
//
//	go run . -seed 1 [-out run.json]          # every workload, one child process each
//	go run . -seed 1 -trace DIR               # per-layer metrics; spans and profiles in DIR
//	go run . -workload engine -seed 1 -seconds 25 -trace 0
//	go run . -compare base.json new.json      # verdict per workload and metric
//	go run . -selftest                        # an injected engine slowdown must be flagged
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
)

func main() { os.Exit(run(os.Args[1:])) }

// childRunner runs one workload in a fresh child process.
type childRunner func(workload string, seed uint64, extra []string) (*Report, error)

func run(args []string) int {
	fs := flag.NewFlagSet("dwarnbench", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 1, "seed every workload's inputs derive from")
		wname    = fs.String("workload", "", "run only this workload, in this process, and print its result line")
		seconds  = fs.Float64("seconds", 0, "measure each workload for this many seconds (0 = the workload's fixed op count)")
		traceArg = fs.String("trace", "0", "0 = untraced end-to-end run; 1 = traced per-layer run; any other value = traced, keeping spans and CPU profiles in that directory")
		ops      = fs.Int("ops", 0, "override the workload's op count (0 = default)")
		out      = fs.String("out", "", "write the full report (run file) as JSON to this path")
		repeat   = fs.Int("repeat", 1, "passes over the workloads, at seeds seed, seed+1, ...")
		compare  = fs.Bool("compare", false, "compare two run files: -compare base.json new.json")
		self     = fs.Bool("selftest", false, "inject an engine slowdown and check that it is flagged")
		slowTick = fs.Float64("slow-tick-ns", 0, "spin this many ns per simulated cycle in every engine policy (self-test)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	benchPath := filepath.Join(root, "BENCHMARK.json")
	trace, traceDir := *traceArg != "0" && *traceArg != "", ""
	if trace && *traceArg != "1" {
		if traceDir, err = filepath.Abs(*traceArg); err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: dwarnbench -compare base.json new.json")
			return 2
		}
		return compareFiles(benchPath, fs.Arg(0), fs.Arg(1))
	case *self:
		bf, err := loadBenchmarkFile(benchPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
		return selftest(root, bf, *seed, childProcess(root, "0"))
	case *wname != "":
		w, err := workloadByName(*wname)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
		cfg := runConfig{seed: *seed, seconds: *seconds, ops: *ops, trace: trace, traceDir: traceDir}
		if *slowTick > 0 {
			cfg.spin = spinItersFor(*slowTick)
		}
		return single(root, w, cfg, *out)
	}

	extra := []string{}
	if *ops > 0 {
		extra = append(extra, "-ops", fmt.Sprint(*ops))
	}
	if *seconds > 0 {
		extra = append(extra, "-seconds", fmt.Sprint(*seconds))
	}
	return orchestrate(*seed, *repeat, *out, traceDir, childProcess(root, *traceArg), extra)
}

// single runs one workload in this process. Its table goes to stderr;
// the last line of stdout is the result line: correct, attempted,
// failed and the metrics.
func single(root string, w *workload, cfg runConfig, out string) int {
	rep, err := runWorkload(root, w, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	if out != "" {
		if err := writeJSONFile(out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
	} else {
		printReport(os.Stderr, rep)
	}
	line, err := json.Marshal(rep.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// childProcess runs a workload in a fresh child process of this binary,
// so process-wide caches and peak RSS belong to that workload alone.
func childProcess(root, traceArg string) childRunner {
	return func(name string, seed uint64, extra []string) (*Report, error) {
		exe, err := os.Executable()
		if err != nil {
			return nil, err
		}
		dir := filepath.Join(root, ".bench_build", "tmp")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		f, err := os.CreateTemp(dir, "report-*.json")
		if err != nil {
			return nil, err
		}
		path := f.Name()
		f.Close()
		defer os.Remove(path)
		args := append([]string{"-workload", name, "-seed", fmt.Sprint(seed), "-trace", traceArg, "-out", path}, extra...)
		cmd := osexec.Command(exe, args...)
		cmd.Stdout = io.Discard
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			// A failed correctness gate exits 1 but still writes its report.
			if ee, ok := err.(*osexec.ExitError); !ok || ee.ExitCode() != 1 {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep Report
		if err := json.Unmarshal(raw, &rep); err != nil {
			return nil, fmt.Errorf("%s report: %w", name, err)
		}
		return &rep, nil
	}
}

// orchestrate runs every workload in its own child process,
// repeat times, prints each report, and writes the run file.
func orchestrate(seed uint64, repeat int, out, traceDir string, runChild childRunner, extra []string) int {
	host := hostInfo()
	fmt.Printf("host: gomaxprocs %d, nproc %d, %s, git %s, cpu %q, degraded %v\n",
		host.GOMAXPROCS, host.NProc, host.GoVersion, host.GitRev, host.CPUModel, host.Degraded)
	// With a trace directory, the per-layer tables also go to layers.txt,
	// and each workload appends its spans to a fresh spans.jsonl.
	var table io.Writer = os.Stdout
	if traceDir != "" {
		if err := os.MkdirAll(traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
		if err := os.Remove(filepath.Join(traceDir, "spans.jsonl")); err != nil && !os.IsNotExist(err) {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
		f, err := os.Create(filepath.Join(traceDir, "layers.txt"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
		defer f.Close()
		table = io.MultiWriter(os.Stdout, f)
	}
	rf := &RunFile{Version: runFileVersion, Host: host}
	ok := true
	for i := range max(repeat, 1) {
		pass := Pass{Seed: seed + uint64(i)}
		for _, w := range workloads {
			rep, err := runChild(w.name, pass.Seed, extra)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwarnbench:", err)
				ok = false
				continue
			}
			printReport(table, rep)
			ok = ok && rep.Correct
			pass.Workloads = append(pass.Workloads, rep)
		}
		rf.Passes = append(rf.Passes, pass)
	}
	var paths []string
	if out != "" {
		paths = append(paths, out)
	}
	if traceDir != "" {
		paths = append(paths, filepath.Join(traceDir, "run.json"))
	}
	for _, path := range paths {
		if err := writeJSONFile(path, rf); err != nil {
			fmt.Fprintln(os.Stderr, "dwarnbench:", err)
			return 2
		}
	}
	if !ok {
		fmt.Println("correctness gate: FAILED")
		return 1
	}
	fmt.Println("correctness gate: passed")
	return 0
}

// compareFiles prints a verdict per workload and end-to-end metric and
// exits 1 when any is worse.
func compareFiles(benchPath, basePath, newPath string) int {
	bf, err := loadBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	base, err := readRunFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	next, err := readRunFile(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench:", err)
		return 2
	}
	if printVerdicts(os.Stdout, compareRuns(base, next, bf.bounds())) > 0 {
		return 1
	}
	return 0
}
