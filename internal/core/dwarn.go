package core

import (
	"fmt"

	"dwarn/internal/pipeline"
)

// dwarn is the paper's contribution. Detection moment: the L1 data-miss
// tag check (reliable — every L2 miss was first an L1 miss — and early).
// Response action: *reduce priority* rather than gate. A thread with at
// least warn in-flight L1 data misses (the per-context counter) is
// demoted to the Dmiss group, so it gets fetch slots only when the
// normal threads cannot fill the fetch bandwidth.
//
// Hybrid response (the full DWarn of §3): with fewer than three running
// threads, priority reduction alone cannot keep a Dmiss thread out of a
// 2.8 fetch engine's spare slots, so a load that *actually* misses in
// L2 (the L2 tag-check signal) additionally gates its thread until the
// data returns. With three or more threads only prioritisation is used;
// threads are never fully stalled. DWarn-Prio, the ablation, never gates.
type dwarn struct {
	nopEvents
	cpu *pipeline.CPU
	// hybrid enables the <3-thread L2-miss gate; gate is whether it
	// applies on the attached CPU.
	hybrid, gate bool
	// warn is the in-flight L1 data-miss count at which a thread is
	// demoted. The paper warns on the first miss (warn = 1); higher
	// values tolerate short miss bursts, the sensitivity axis the
	// registry's "warn" parameter sweeps.
	warn int
	// gating counts declared-and-unreturned L2-missing loads per thread
	// (only maintained when the gate applies).
	gating []int
}

func (d *dwarn) params() string { return fmt.Sprintf("hybrid=%v|warn=%d", d.hybrid, d.warn) }

func (d *dwarn) attach(cpu *pipeline.CPU) {
	d.cpu = cpu
	d.gate = d.hybrid && cpu.NumThreads() < 3
	d.gating = make([]int, cpu.NumThreads())
}

func (d *dwarn) reset() {
	for i := range d.gating {
		d.gating[i] = 0
	}
}

// OnL2Miss: the true L2-miss signal gates the thread when the hybrid
// response applies.
func (d *dwarn) OnL2Miss(inst *pipeline.DynInst, now int64) {
	if !d.gate || inst.PolicyCounted {
		return
	}
	inst.PolicyCounted = true
	d.gating[inst.Thread]++
}

// OnLoadReturning releases the gate on the advance return indication,
// like STALL; OnLoadReturn and OnSquash are the safety nets.
func (d *dwarn) OnLoadReturning(inst *pipeline.DynInst, now int64) { d.release(inst) }
func (d *dwarn) OnLoadReturn(inst *pipeline.DynInst, now int64)    { d.release(inst) }
func (d *dwarn) OnSquash(inst *pipeline.DynInst, now int64)        { d.release(inst) }

func (d *dwarn) release(inst *pipeline.DynInst) {
	if inst.PolicyCounted {
		inst.PolicyCounted = false
		d.gating[inst.Thread]--
	}
}

func (d *dwarn) classify(class []pipeline.GateClass) {
	for t := range class {
		switch {
		case d.gate && d.gating[t] > 0:
			class[t] = pipeline.GateGated
		case d.cpu.L1DMissInFlight(t) >= d.warn:
			class[t] = pipeline.GateDemoted
		default:
			class[t] = pipeline.GateNormal
		}
	}
}
