package sim

import (
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// prewarm installs each thread's steady-state working set into the
// memory hierarchy before the timed warmup: hot regions into the L1D
// and L2, mid rings and code into the L2, hot pages into the DTLB.
//
// Why: the mid ring's reuse distance is by construction larger than the
// L1, so one full lap — hundreds of thousands of instructions for
// benchmarks that touch it rarely — must pass before its steady state
// (L1 miss, L2 hit) is reached. Simulating that lap cold would either
// dominate the run time or, worse, misclassify every mid access as an
// L2 miss. Pre-touching is warmup engineering, not a change to the
// model: the subsequent timed warmup still converges queues, predictors
// and replacement state.
//
// Touch order interleaves threads line by line so that when the
// combined footprints exceed a level's capacity the survivors are an
// arbitrary inter-thread mix, as they would be in steady state.
func prewarm(cpu *pipeline.CPU, srcs []*workload.Stream) {
	mem := cpu.Mem()
	fps := make([]workload.Footprint, len(srcs))
	maxLines := 0
	for i, src := range srcs {
		fps[i] = src.Footprint()
		for _, n := range []int{fps[i].CodeBytes, fps[i].HotBytes, fps[i].MidBytes} {
			if lines := (n + 63) / 64; lines > maxLines {
				maxLines = lines
			}
		}
	}
	for off := 0; off < maxLines*64; off += 64 {
		for t := range fps {
			fp := &fps[t]
			if off < fp.MidBytes {
				mem.L2.Touch(fp.MidBase + uint64(off))
			}
			if off < fp.CodeBytes {
				mem.L2.Touch(fp.CodeBase + uint64(off))
			}
			if off < fp.HotBytes {
				mem.L2.Touch(fp.HotBase + uint64(off))
				mem.L1D.Touch(fp.HotBase + uint64(off))
			}
		}
	}
	// DTLB: hot pages first so they survive if the regions exceed TLB
	// reach (they do not, for the calibrated profiles).
	for t := range fps {
		fp := &fps[t]
		touchPages(cpu, t, fp.MidBase, fp.MidBytes)
		touchPages(cpu, t, fp.HotBase, fp.HotBytes)
	}
}

func touchPages(cpu *pipeline.CPU, thread int, base uint64, bytes int) {
	page := cpu.Config().PageBytes
	for off := 0; off < bytes; off += page {
		cpu.Mem().DTLB[thread].Access(base + uint64(off))
	}
}
