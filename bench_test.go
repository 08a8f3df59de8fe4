// Benchmarks regenerating every table and figure of the paper, plus
// microbenchmarks of the simulator itself.
//
// Each Benchmark<Artifact> runs the corresponding experiment end to end
// per iteration (with shortened warmup/measure windows so `go test
// -bench=.` completes quickly) and reports headline numbers via
// b.ReportMetric. For publication-quality runs use cmd/experiments,
// which uses the full protocol.
package dwarn_test

import (
	"strconv"
	"testing"

	"dwarn"
	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/exp"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// benchConfig is the shortened protocol used per benchmark iteration.
func benchConfig() exp.Config {
	return exp.Config{WarmupCycles: 10_000, MeasureCycles: 20_000}
}

// runExperiment executes one experiment per iteration; a fresh Runner
// each time so the work is not memoised away.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := exp.NewRunner(benchConfig())
		if _, err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2aCacheBehaviour regenerates Table 2(a): isolated
// per-benchmark L1/L2 load miss rates.
func BenchmarkTable2aCacheBehaviour(b *testing.B) { runExperiment(b, "table2a") }

// BenchmarkFig1aThroughput regenerates Figure 1(a): absolute throughput
// for all six policies over the twelve workloads.
func BenchmarkFig1aThroughput(b *testing.B) { runExperiment(b, "fig1a") }

// BenchmarkFig1bImprovement regenerates Figure 1(b): DWarn's throughput
// improvement over each policy.
func BenchmarkFig1bImprovement(b *testing.B) { runExperiment(b, "fig1b") }

// BenchmarkFig2FlushedInstructions regenerates Figure 2: instructions
// squashed by FLUSH as a share of fetched instructions.
func BenchmarkFig2FlushedInstructions(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3Hmean regenerates Figure 3: DWarn's Hmean improvement.
func BenchmarkFig3Hmean(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkTable4RelativeIPC regenerates Table 4: per-thread relative
// IPCs in 4-MIX.
func BenchmarkTable4RelativeIPC(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig4SmallArch regenerates Figure 4: the 4-wide 1.4-fetch
// machine.
func BenchmarkFig4SmallArch(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5DeepArch regenerates Figure 5: the 16-stage machine.
func BenchmarkFig5DeepArch(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkAblateL2Threshold sweeps STALL/FLUSH's L2-declaration
// threshold (DESIGN.md ablation A1).
func BenchmarkAblateL2Threshold(b *testing.B) { runExperiment(b, "ablate-threshold") }

// BenchmarkAblateDGThreshold sweeps DG's gate threshold (ablation A2).
func BenchmarkAblateDGThreshold(b *testing.B) { runExperiment(b, "ablate-dg") }

// BenchmarkAblateDWarnHybrid compares hybrid DWarn against
// prioritisation-only (ablation A3).
func BenchmarkAblateDWarnHybrid(b *testing.B) { runExperiment(b, "ablate-hybrid") }

// BenchmarkPolicyThroughput4MIX reports each policy's steady-state
// throughput on 4-MIX as a metric (IPC), one sub-benchmark per policy.
func BenchmarkPolicyThroughput4MIX(b *testing.B) {
	wl, err := dwarn.Workload("4-MIX")
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range dwarn.PaperPolicies() {
		b.Run(pol, func(b *testing.B) {
			var thr float64
			for i := 0; i < b.N; i++ {
				res, err := dwarn.Run(dwarn.Options{
					Policy: pol, Workload: wl,
					WarmupCycles: 10_000, MeasureCycles: 20_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				thr = res.Throughput
			}
			b.ReportMetric(thr, "IPC")
		})
	}
}

// BenchmarkSimulatorCycleRate measures raw simulation speed per fetch
// policy and thread count, the number that bounds every experiment
// above: ICOUNT, the threshold detector of STALL and FLUSH (FLUSH adds
// squash and re-fetch), and DWarn, as <policy>/<workload>. Besides the
// stock ns/op (= ns/cycle) it reports committed uops/sec and, with
// -benchmem, allocations per cycle — the zero-alloc engine's headline
// numbers. The tracked trajectory is cmd/dwarnbench's engine workload:
// sim.ns_per_cycle, sim.ns_per_committed_uop and
// runtime.alloc_kb_per_op.
func BenchmarkSimulatorCycleRate(b *testing.B) {
	for _, pol := range []string{"icount", "stall", "flush", "dwarn"} {
		for _, wn := range []string{"2-MIX", "4-MIX", "8-MEM"} {
			b.Run(pol+"/"+wn, func(b *testing.B) {
				wl, _ := workload.GetWorkload(wn)
				gens, _ := wl.Generators(42)
				cpu, err := pipeline.New(config.Baseline(), core.MustNewPolicy(pol), gens)
				if err != nil {
					b.Fatal(err)
				}
				defer cpu.Release()
				cpu.Run(5000) // warm
				committed := func() uint64 {
					var sum uint64
					for t := 0; t < cpu.NumThreads(); t++ {
						sum += cpu.ThreadStats(t).Committed
					}
					return sum
				}
				before := committed()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cpu.Step()
				}
				b.StopTimer()
				delta := float64(committed() - before)
				if secs := b.Elapsed().Seconds(); secs > 0 {
					b.ReportMetric(delta/secs, "uops/sec")
				}
				b.ReportMetric(delta/float64(b.N), "uops/cycle")
			})
		}
	}
}

// BenchmarkGenerator measures synthetic trace generation speed.
func BenchmarkGenerator(b *testing.B) {
	for _, name := range []string{"gzip", "mcf"} {
		b.Run(name, func(b *testing.B) {
			g := workload.NewGenerator(workload.MustGet(name), 42, 1<<40)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Next()
			}
		})
	}
}

// BenchmarkGeneratorConstruction measures program synthesis +
// calibration cost (dry runs included).
func BenchmarkGeneratorConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		workload.NewGenerator(workload.MustGet("gcc"), uint64(i)+1, 1<<40)
	}
}

// BenchmarkThreadScaling reports throughput across MEM thread counts
// under DWarn (the paper's scaling axis).
func BenchmarkThreadScaling(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(strconv.Itoa(n)+"-MEM", func(b *testing.B) {
			wl, err := dwarn.Workload(strconv.Itoa(n) + "-MEM")
			if err != nil {
				b.Fatal(err)
			}
			var thr float64
			for i := 0; i < b.N; i++ {
				res, err := dwarn.Run(dwarn.Options{
					Policy: "dwarn", Workload: wl,
					WarmupCycles: 10_000, MeasureCycles: 20_000,
				})
				if err != nil {
					b.Fatal(err)
				}
				thr = res.Throughput
			}
			b.ReportMetric(thr, "IPC")
		})
	}
}
