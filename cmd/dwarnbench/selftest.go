package main

import (
	"fmt"
	"os"
	"time"

	"dwarn"
	"dwarn/internal/pipeline"
	"dwarn/internal/sim"
)

// slowPolicy delegates every FetchPolicy method to the wrapped policy
// and burns a fixed number of spin iterations in Tick, which the
// pipeline calls once per simulated cycle. The simulation is unchanged;
// only host time per cycle grows.
type slowPolicy struct {
	pipeline.FetchPolicy
	spin int
}

func (p *slowPolicy) Tick(now int64) {
	spinFor(p.spin)
	p.FetchPolicy.Tick(now)
}

// spinSink keeps the spin loop from being optimised away.
var spinSink uint64

func spinFor(n int) {
	x := spinSink
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

// spinItersFor calibrates how many spin iterations take ns nanoseconds.
func spinItersFor(ns float64) int {
	const probe = 20_000_000
	best := time.Duration(1<<62 - 1)
	for range 3 {
		t0 := time.Now()
		spinFor(probe)
		best = min(best, time.Since(t0))
	}
	return max(1, int(ns*probe/float64(best.Nanoseconds())))
}

// nsPerCycle measures the engine's host time per simulated cycle on one
// run of each engine workload, as sim.ns_per_cycle does.
func nsPerCycle(seed uint64) (float64, error) {
	var wall time.Duration
	var cycles int64
	for _, name := range engineWorkloads {
		wl, err := dwarn.Workload(name)
		if err != nil {
			return 0, err
		}
		opts := dwarn.Options{Policy: "icount", Workload: wl, Seed: seed}
		t0 := time.Now()
		if _, err := dwarn.Run(opts); err != nil {
			return 0, err
		}
		wall += time.Since(t0)
		cycles += sim.DefaultWarmupCycles + sim.DefaultMeasureCycles
	}
	return float64(wall.Nanoseconds()) / float64(cycles), nil
}

// selftestOps sizes each self-test engine run (six groups of six).
const selftestOps = 36

// selftestSlowdown is the host time the self-test adds per simulated
// cycle, as a fraction of the measured sim.ns_per_cycle: enough to cut
// engine throughput by twice its regression bound b (f = 2b/(1-2b)),
// and never less than 10%. A slowdown inside the bound is by design
// not flagged, so the injection grows with the bound: 11% at b = 5%,
// 100% at the 25% a shared 2-core host needs.
func selftestSlowdown(b float64) float64 {
	if b >= 0.5 {
		return 1
	}
	return max(0.10, 2*b/(1-2*b))
}

// selftest injects a host-time slowdown into every engine policy and
// checks that the benchmark sees it: -compare must call engine
// throughput worse, and the slowed runs must simulate exactly what the
// plain runs simulate.
func selftest(root string, bf *benchmarkFile, seed uint64, runChild childRunner) int {
	ns, err := nsPerCycle(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dwarnbench: selftest:", err)
		return 2
	}
	bounds := bf.bounds()
	frac := selftestSlowdown(bounds["throughput_ops_per_s"])
	slow := frac * ns
	fmt.Printf("selftest: sim.ns_per_cycle %.1f ns; injecting %.1f ns (%.0f%%) per cycle into Tick; throughput bound %.0f%%\n",
		ns, slow, 100*frac, 100*bounds["throughput_ops_per_s"])

	base := &RunFile{Version: runFileVersion, Host: hostInfo()}
	slowed := &RunFile{Version: runFileVersion, Host: hostInfo()}
	digests := map[string]bool{}
	for i := range 3 {
		for _, side := range []struct {
			rf   *RunFile
			tick float64
		}{{base, 0}, {slowed, slow}} {
			rep, err := runChild("engine", seed, []string{
				"-ops", fmt.Sprint(selftestOps), "-slow-tick-ns", fmt.Sprint(side.tick),
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "dwarnbench: selftest:", err)
				return 2
			}
			if !rep.Correct {
				fmt.Fprintf(os.Stderr, "dwarnbench: selftest: run %d failed its correctness gate: %v\n", i, rep.Problems)
				return 1
			}
			digests[rep.Digest] = true
			side.rf.Passes = append(side.rf.Passes, Pass{Seed: seed, Workloads: []*Report{rep}})
		}
	}
	vs := compareRuns(base, slowed, bounds)
	printVerdicts(os.Stdout, vs)
	flagged := false
	for _, v := range vs {
		if v.Metric == "throughput_ops_per_s" && v.Verdict == verdictWorse {
			flagged = true
		}
	}
	ok := flagged && len(digests) == 1
	fmt.Printf("selftest: engine throughput flagged worse: %v; counter digests identical across all %d runs: %v\n",
		flagged, 6, len(digests) == 1)
	if !ok {
		fmt.Println("selftest: FAILED")
		return 1
	}
	fmt.Println("selftest: passed")
	return 0
}
