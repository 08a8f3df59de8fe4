package core

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dwarn/internal/mem/hierarchy"
	"dwarn/internal/pipeline"
)

// scanThreshold is the reference for the threshold detector: the same
// declarations, found by scanning every tracked load of every thread on
// every cycle.
type scanThreshold struct {
	threshold  int64
	flush      bool
	flushAfter func(*pipeline.DynInst) int
	tracked    [][]trackedLoad
	blocking   []int
}

func (d *scanThreshold) OnLoadAccess(inst *pipeline.DynInst, now int64) {
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
	}
	d.tracked[t] = append(d.tracked[t], tl)
}

func (d *scanThreshold) Tick(now int64) {
	for t := range d.tracked {
		var declare []*pipeline.DynInst
		for i := range d.tracked[t] {
			tl := &d.tracked[t][i]
			if tl.declared || now-tl.accessAt < d.threshold {
				continue
			}
			tl.declared = true
			d.blocking[t]++
			if d.flush {
				declare = append(declare, tl.inst)
			}
		}
		for _, inst := range declare {
			if !inst.Squashed() {
				d.flushAfter(inst)
			}
		}
	}
}

func (d *scanThreshold) OnLoadReturning(inst *pipeline.DynInst, now int64) { d.drop(inst) }
func (d *scanThreshold) OnLoadReturn(inst *pipeline.DynInst, now int64)    { d.drop(inst) }
func (d *scanThreshold) OnSquash(inst *pipeline.DynInst, now int64)        { d.drop(inst) }

func (d *scanThreshold) drop(inst *pipeline.DynInst) {
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

// thresholdUnderTest is what driveThreshold needs of a detector.
type thresholdUnderTest interface {
	OnLoadAccess(inst *pipeline.DynInst, now int64)
	OnLoadReturning(inst *pipeline.DynInst, now int64)
	OnLoadReturn(inst *pipeline.DynInst, now int64)
	OnSquash(inst *pipeline.DynInst, now int64)
	Tick(now int64)
}

// thresholdLoad is one load of a driveThreshold scenario.
type thresholdLoad struct {
	inst     *pipeline.DynInst
	accessAt int64
	// endAt is when the load leaves: it returns (with a returning
	// indication two cycles before when ending > accessAt+2) or, if
	// squash, a branch squashes it.
	endAt  int64
	squash bool
	gone   bool
}

// driveThreshold runs a seeded scenario of nThreads threads' loads
// through det for cycles cycles and logs, per cycle, every thread's
// blocking count after Tick and every flush the detector asked for.
// Loads start at staggered cycles; most miss the L1, some miss the DTLB
// (declared at once), some return or are squashed before they come due
// and some long after. A flush squashes every younger tracked load of
// its thread, as the pipeline's does.
func driveThreshold(det thresholdUnderTest, blocking func() []int, setFlush func(func(*pipeline.DynInst) int), threshold int64, nThreads int, seed uint64, cycles int64) []string {
	rng := rand.New(rand.NewPCG(seed, 7))
	var log []string
	var now int64
	var loads []*thresholdLoad
	setFlush(func(inst *pipeline.DynInst) int {
		log = append(log, fmt.Sprintf("cycle %d: flush after t%d age %d", now, inst.Thread, inst.Age))
		n := 0
		for _, l := range loads {
			if !l.gone && l.inst.Thread == inst.Thread && l.inst.Age > inst.Age && l.accessAt <= now {
				l.gone = true
				det.OnSquash(l.inst, now)
				n++
			}
		}
		return n
	})
	var age uint64
	for now = 1; now <= cycles; now++ {
		// Events fire in pipeline order: returns and squashes, then new
		// accesses, then Tick.
		for _, l := range loads {
			if l.gone || l.accessAt >= now {
				continue
			}
			switch {
			case l.endAt == now && l.squash:
				l.gone = true
				det.OnSquash(l.inst, now)
			case l.endAt == now:
				l.gone = true
				det.OnLoadReturn(l.inst, now)
			case !l.squash && l.endAt-2 == now && l.endAt-2 > l.accessAt:
				det.OnLoadReturning(l.inst, now)
			}
		}
		for t := 0; t < nThreads; t++ {
			if rng.IntN(4) != 0 {
				continue
			}
			inst := &pipeline.DynInst{Thread: t, Age: age}
			age++
			switch r := rng.IntN(10); {
			case r < 6:
				inst.MemRes = hierarchy.DataResult{L1Miss: true}
			case r < 7:
				inst.MemRes = hierarchy.DataResult{MergedMiss: true}
			case r < 8:
				inst.MemRes = hierarchy.DataResult{TLBMiss: true, L1Miss: rng.IntN(2) == 0}
			}
			// Lifetimes straddle the threshold: well before it, right at
			// it and one either side, and far beyond.
			var life int64
			switch rng.IntN(4) {
			case 0:
				life = 1 + rng.Int64N(threshold)
			case 1:
				life = threshold - 1 + rng.Int64N(3)
			default:
				life = threshold + rng.Int64N(8*threshold)
			}
			l := &thresholdLoad{inst: inst, accessAt: now, endAt: now + max(life, 1), squash: rng.IntN(5) == 0}
			loads = append(loads, l)
			det.OnLoadAccess(inst, now)
		}
		det.Tick(now)
		log = append(log, fmt.Sprintf("cycle %d: blocking %v", now, blocking()))
		loads = slices.DeleteFunc(loads, func(l *thresholdLoad) bool { return l.gone })
	}
	return log
}

// TestThresholdDueCycleMatchesScan: the threshold detector, which
// scans a thread only from its earliest due cycle on, declares the same
// loads in the same cycles and asks for the same flushes as a detector
// that scans every tracked load every cycle, for STALL and FLUSH, over
// several thresholds and thread counts.
func TestThresholdDueCycleMatchesScan(t *testing.T) {
	for _, flush := range []bool{false, true} {
		for _, thr := range []int64{1, 2, 15, 40} {
			for _, n := range []int{1, 2, 4, 8} {
				for seed := uint64(1); seed <= 3; seed++ {
					d := &threshold{threshold: thr, flush: flush}
					d.size(n, 128)
					got := driveThreshold(d, func() []int { return d.blocking },
						func(f func(*pipeline.DynInst) int) { d.flushAfter = f }, thr, n, seed, 3000)

					ref := &scanThreshold{threshold: thr, flush: flush,
						tracked: make([][]trackedLoad, n), blocking: make([]int, n)}
					want := driveThreshold(ref, func() []int { return ref.blocking },
						func(f func(*pipeline.DynInst) int) { ref.flushAfter = f }, thr, n, seed, 3000)

					for i := range min(len(got), len(want)) {
						if got[i] != want[i] {
							t.Fatalf("flush=%v threshold=%d threads=%d seed=%d: %q, reference %q", flush, thr, n, seed, got[i], want[i])
						}
					}
					if len(got) != len(want) {
						t.Fatalf("flush=%v threshold=%d threads=%d seed=%d: %d log lines, reference %d", flush, thr, n, seed, len(got), len(want))
					}
				}
			}
		}
	}
}
