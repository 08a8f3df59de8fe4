package core

import (
	"fmt"

	"dwarn/internal/isa"
	"dwarn/internal/pipeline"
)

// dg is data gating: a thread with more than n outstanding L1 data
// misses is fetch-gated until the misses resolve. The detection moment
// is the L1 tag check (the same in-flight counter DWarn reads); the
// response is a full gate — too strict when thread-level parallelism is
// low, which is exactly the behaviour the paper exploits in its
// comparison. The paper (after El-Moursy & Albonesi) uses n = 0.
type dg struct {
	nopEvents
	cpu *pipeline.CPU
	n   int
}

func (d *dg) params() string           { return fmt.Sprintf("n=%d", d.n) }
func (d *dg) attach(cpu *pipeline.CPU) { d.cpu = cpu }

func (d *dg) classify(class []pipeline.GateClass) {
	for t := range class {
		class[t] = gatedIf(d.cpu.L1DMissInFlight(t) > d.n)
	}
}

// pdgTableSize is the per-thread L1 miss predictor size (2-bit
// saturating counters indexed by load PC).
const pdgTableSize = 2048

// pdg is predictive data gating: an L1 miss predictor consulted at
// fetch. A thread is gated while (#in-flight loads predicted to miss +
// #loads predicted to hit that actually missed) exceeds n. Earlier than
// DG but exposed to predictor error and to load serialisation — the two
// failure modes the paper measures.
type pdg struct {
	nopEvents
	n     int
	table [][]uint8
	count []int
}

func (d *pdg) params() string { return fmt.Sprintf("n=%d", d.n) }

func (d *pdg) attach(cpu *pipeline.CPU) {
	d.table = make([][]uint8, cpu.NumThreads())
	for i := range d.table {
		d.table[i] = make([]uint8, pdgTableSize)
	}
	d.count = make([]int, cpu.NumThreads())
}

// reset clears the gates; the trained predictor persists (it is
// microarchitectural state).
func (d *pdg) reset() {
	for i := range d.count {
		d.count[i] = 0
	}
}

func (d *pdg) idx(pc uint64) int { return int(pc>>2) & (pdgTableSize - 1) }

// OnFetch predicts each fetched load; a predicted miss counts at once.
func (d *pdg) OnFetch(inst *pipeline.DynInst, now int64) {
	if inst.U.Class != isa.Load {
		return
	}
	if d.table[inst.Thread][d.idx(inst.U.PC)] >= 2 {
		inst.PolicyCounted = true
		d.count[inst.Thread]++
	}
}

// OnLoadAccess trains the predictor on the actual outcome and counts
// surprise misses (predicted hit, missed).
func (d *pdg) OnLoadAccess(inst *pipeline.DynInst, now int64) {
	tbl := d.table[inst.Thread]
	i := d.idx(inst.U.PC)
	if inst.MemRes.SawMiss() {
		if tbl[i] < 3 {
			tbl[i]++
		}
		if !inst.PolicyCounted {
			inst.PolicyCounted = true
			d.count[inst.Thread]++
		}
	} else if tbl[i] > 0 {
		tbl[i]--
	}
}

func (d *pdg) OnLoadReturn(inst *pipeline.DynInst, now int64) { d.release(inst) }
func (d *pdg) OnSquash(inst *pipeline.DynInst, now int64)     { d.release(inst) }

func (d *pdg) release(inst *pipeline.DynInst) {
	if inst.PolicyCounted {
		inst.PolicyCounted = false
		d.count[inst.Thread]--
	}
}

func (d *pdg) classify(class []pipeline.GateClass) {
	for t := range class {
		class[t] = gatedIf(d.count[t] > d.n)
	}
}
