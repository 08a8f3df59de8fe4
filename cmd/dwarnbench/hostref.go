package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The benchmark shares its machine with other tenants, and the host's
// speed drifts by tens of percent within minutes: neighbours contend for
// the shared core, caches and memory, and the hypervisor at times takes
// a vCPU away outright. Identical work measured minutes apart differs by
// more than any useful bound. Every run therefore also times a fixed
// reference kernel in short bursts spread through its timed loop (one
// before each segment, one after the last). Each end-to-end time is then
// scaled by refNominalMS over the kernel's median burst: wall-clock
// metrics by its wall time, CPU time per op by its CPU time. (A stolen
// vCPU stretches wall time but not CPU time; contention stretches
// both.) The scaled numbers read as they would on a host running the
// kernel at its nominal speed; the report keeps the unscaled values and
// both reference times.
//
// The kernel sorts 200k pseudo-random ints with the standard library:
// unpredictable branches over an L2-sized array, as in the cycle
// engine, and code no change to the repository can touch. Measured
// against repeated identical engine runs in 40 processes on the host
// the bounds were set on, it tracked the engine's slowdown better than
// L1-resident, L2-sized and DRAM-sized loops, compression or JSON
// round trips, and a single goroutine tracked two busy cores better
// than one sort per core.

// refLen is how many ints one burst sorts.
const refLen = 200_000

// refNominalMS is the burst time the scaled metrics are expressed at:
// the median burst on the quiet 2-core Xeon host the bounds were set
// on, with go1.24.
const refNominalMS = 18.0

// segment is how long the clients run between two reference bursts.
const segment = time.Second

// refKernel is the kernel's input and scratch space, made once per run
// so a burst times the sort, not the allocation.
type refKernel struct{ in, buf []int }

func newRefKernel() *refKernel {
	r := rand.New(rand.NewPCG(1, 2))
	in := make([]int, refLen)
	for i := range in {
		in[i] = r.Int()
	}
	return &refKernel{in: in, buf: make([]int, refLen)}
}

// hostRef records the bursts timed during one stretch of a run.
type hostRef struct {
	k         *refKernel
	wall, cpu []float64 // per burst, ms
}

func (k *refKernel) newRef() *hostRef { return &hostRef{k: k} }

// burst sorts a fresh copy of the input once and records the wall and
// CPU time it took. The process must be otherwise idle.
func (r *hostRef) burst() {
	c0, t0 := cpuTime(), time.Now()
	copy(r.k.buf, r.k.in)
	slices.Sort(r.k.buf)
	r.wall = append(r.wall, float64(time.Since(t0))/1e6)
	r.cpu = append(r.cpu, float64(cpuTime()-c0)/1e6)
}

// scales are the factors that take this run's wall-clock and CPU times
// to the nominal host speed.
func (r *hostRef) scales() (wall, cpu float64) {
	return refNominalMS / median(r.wall), refNominalMS / median(r.cpu)
}
