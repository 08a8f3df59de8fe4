package core

import (
	"fmt"
	"math"

	"dwarn/internal/pipeline"
)

// trackedLoad is one outstanding L1-missing load being timed by the
// threshold detector.
type trackedLoad struct {
	inst     *pipeline.DynInst
	accessAt int64
	declared bool
}

// threshold is Tullsen & Brown's detector, shared by STALL and FLUSH: a
// load that stays in the hierarchy threshold cycles (the paper found 15
// best for the baseline machine) or suffers a data-TLB miss is declared
// an L2 miss, and its thread is gated until the 2-cycle advance return
// indication. With flush set (FLUSH), each declaration also squashes
// every younger instruction of the thread, freeing the shared resources
// they held; they are re-fetched when the thread resumes.
type threshold struct {
	nopEvents
	threshold int64
	flush     bool
	// flushAfter is the FLUSH response, the attached CPU's FlushAfter.
	flushAfter func(*pipeline.DynInst) int
	// outstanding missing loads per thread.
	tracked [][]trackedLoad
	// due is, per thread, a cycle at or before which Tick must next
	// scan the thread's loads: no undeclared load comes due earlier. A
	// load that returns or is squashed leaves it unchanged, so it may
	// be early, which costs only a scan that declares nothing.
	due []int64
	// blocking counts declared-but-unreturned loads per thread; a
	// thread is gated while its count is positive.
	blocking []int
	// declareBuf is reusable scratch for Tick, so the per-cycle path
	// never allocates.
	declareBuf []*pipeline.DynInst
}

func (d *threshold) params() string { return fmt.Sprintf("threshold=%d", d.threshold) }

func (d *threshold) attach(cpu *pipeline.CPU) {
	d.flushAfter = cpu.FlushAfter
	// A tracked load sits in its thread's ROB until it returns or is
	// squashed, so the ROB bounds each list and the scratch: sized to
	// it, the per-cycle path never grows them.
	d.size(cpu.NumThreads(), cpu.Config().ROBSizePerThread)
}

// size allocates per-thread state for n threads of rob-entry ROBs.
func (d *threshold) size(n, rob int) {
	d.tracked = make([][]trackedLoad, n)
	d.due = make([]int64, n)
	d.blocking = make([]int, n)
	for i := range d.tracked {
		d.tracked[i] = make([]trackedLoad, 0, rob)
	}
	d.declareBuf = make([]*pipeline.DynInst, 0, rob)
	d.reset()
}

func (d *threshold) reset() {
	for i := range d.tracked {
		d.tracked[i] = d.tracked[i][:0]
		d.due[i] = math.MaxInt64
		d.blocking[i] = 0
	}
}

// OnLoadAccess starts timing a missing load. A DTLB miss is declared
// at once, as in the paper.
func (d *threshold) OnLoadAccess(inst *pipeline.DynInst, now int64) {
	if !inst.MemRes.SawMiss() && !inst.MemRes.TLBMiss {
		return
	}
	t := inst.Thread
	tl := trackedLoad{inst: inst, accessAt: now}
	if inst.MemRes.TLBMiss {
		tl.declared = true
		d.blocking[t]++
		if d.flush {
			d.flushAfter(inst)
		}
	} else if at := now + d.threshold; at < d.due[t] {
		d.due[t] = at
	}
	d.tracked[t] = append(d.tracked[t], tl)
}

// Tick advances the timers and declares overdue loads. A thread is
// scanned only once its due cycle has come; the scan finds the next one.
// Flushes are collected first and acted on afterwards: a flush squashes
// instructions, which re-enters the detector through drop and would
// otherwise invalidate the iteration.
func (d *threshold) Tick(now int64) {
	for t := range d.tracked {
		if now < d.due[t] {
			continue
		}
		declare := d.declareBuf[:0]
		next := int64(math.MaxInt64)
		for i := range d.tracked[t] {
			tl := &d.tracked[t][i]
			if tl.declared {
				continue
			}
			if at := tl.accessAt + d.threshold; now < at {
				next = min(next, at)
				continue
			}
			tl.declared = true
			d.blocking[t]++
			if d.flush {
				declare = append(declare, tl.inst)
			}
		}
		d.due[t] = next
		for _, inst := range declare {
			if !inst.Squashed() {
				d.flushAfter(inst)
			}
		}
		d.declareBuf = declare[:0]
	}
}

// OnLoadReturning: the advance return indication un-gates the thread
// two cycles early. OnLoadReturn is the safety net for loads whose
// return was too close for an advance indication.
func (d *threshold) OnLoadReturning(inst *pipeline.DynInst, now int64) { d.drop(inst) }
func (d *threshold) OnLoadReturn(inst *pipeline.DynInst, now int64)    { d.drop(inst) }
func (d *threshold) OnSquash(inst *pipeline.DynInst, now int64)        { d.drop(inst) }

// drop stops tracking a load (it returned or was squashed), releasing
// its gate contribution.
func (d *threshold) drop(inst *pipeline.DynInst) {
	t := inst.Thread
	list := d.tracked[t]
	for i := range list {
		if list[i].inst == inst {
			if list[i].declared {
				d.blocking[t]--
			}
			list[i] = list[len(list)-1]
			d.tracked[t] = list[:len(list)-1]
			return
		}
	}
}

func (d *threshold) classify(class []pipeline.GateClass) {
	for t := range class {
		class[t] = gatedIf(d.blocking[t] > 0)
	}
}
