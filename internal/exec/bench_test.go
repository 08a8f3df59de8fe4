package exec

import (
	"context"
	"fmt"
	"testing"

	"dwarn/internal/spec"
)

// benchGrid expands the fixed sweep the executor benchmark runs: 64
// cells (4 policies × 4 workloads × 4 seeds) with a short protocol —
// large enough that scheduling overhead is invisible, short enough that
// the serial baseline finishes in under a second.
func benchGrid(b *testing.B) []*spec.Resolved {
	b.Helper()
	ss := spec.SweepSpec{
		Policies: []spec.PolicyAxis{
			{Name: "icount"}, {Name: "stall"}, {Name: "flush"}, {Name: "dwarn"},
		},
		Workloads: []spec.Workload{
			{Name: "2-ILP"}, {Name: "2-MIX"}, {Name: "2-MEM"}, {Name: "4-MIX"},
		},
		Seeds:        []uint64{1, 2, 3, 4},
		WarmupCycles: 500, MeasureCycles: 2000,
	}
	runs, err := ss.Expand(0)
	if err != nil {
		b.Fatal(err)
	}
	cells := make([]*spec.Resolved, len(runs))
	for i := range runs {
		if cells[i], err = runs[i].Resolve(nil); err != nil {
			b.Fatal(err)
		}
	}
	return cells
}

// BenchmarkSweepExecutor measures sweep throughput (cells/sec) at
// 1/2/4/8 workers over a 64-cell grid. Every iteration uses a fresh
// store so each cell is really simulated. The serial ÷ 8-worker ratio
// is the parallel speedup the execution layer delivers on the host's
// cores (capped by GOMAXPROCS; on a single-core runner all four points
// collapse to the serial rate). The tracked numbers are cmd/dwarnbench's
// grid workload: throughput_ops_per_s (18 cells per op) and
// exec.pool_utilization.
func BenchmarkSweepExecutor(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			cells := benchGrid(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex := New(Options{Workers: workers})
				results := ex.Execute(context.Background(), cells, nil)
				if err := FirstError(results); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			cells64 := float64(len(cells) * b.N)
			b.ReportMetric(cells64/b.Elapsed().Seconds(), "cells/sec")
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}
