// Package core implements the fetch policies the paper studies: the
// ICOUNT baseline, the long-latency-load policies STALL and FLUSH
// (Tullsen & Brown), data gating DG and predictive data gating PDG
// (El-Moursy & Albonesi), and the paper's contribution, DWarn, plus a
// prioritisation-only DWarn variant used for ablation.
//
// Every policy is one Policy: ICOUNT ordering under a shared response,
// driven by a policy-specific detector. The detector is the paper's
// Table 1 detection moment (fetch-time prediction, L1 miss, L2 miss, or
// a latency threshold); it sorts each thread into normal, demoted or
// gated once per cycle, and Priority turns that into the fetch order.
package core

import (
	"dwarn/internal/pipeline"
)

// icountOrder orders thread IDs by ascending pre-issue instruction count
// (the ICOUNT heuristic), breaking ties with a rotating offset so equal
// threads share fetch slots fairly over time: thread t's tie-break is
// (t+rot) mod n, where rot is the cycle mod n. Keys are unique (the
// rotation separates equal counts), so this insertion sort produces
// exactly the order the previous sort.Slice did — without its per-call
// closure and interface allocations, which dominated Priority on the
// per-cycle path. Thread counts are at most 8.
func icountOrder(cpu *pipeline.CPU, rot int, tids []int) {
	n := cpu.NumThreads()
	var kbuf [16]int
	keys := kbuf[:]
	if n > len(kbuf) {
		keys = make([]int, n)
	}
	for _, t := range tids {
		tie := t + rot
		if tie >= n {
			tie -= n
		}
		keys[t] = cpu.PreIssueCount(t)*16 + tie
	}
	for i := 1; i < len(tids); i++ {
		t := tids[i]
		k := keys[t]
		j := i - 1
		for ; j >= 0 && keys[tids[j]] > k; j-- {
			tids[j+1] = tids[j]
		}
		tids[j+1] = t
	}
}

// detector is one policy's detection moment: it receives the pipeline
// events it needs and classifies every thread once per cycle. Gates it
// sets clear at reset; trained state (PDG's predictor) may persist.
type detector interface {
	OnFetch(inst *pipeline.DynInst, now int64)
	OnLoadAccess(inst *pipeline.DynInst, now int64)
	OnL2Miss(inst *pipeline.DynInst, now int64)
	OnLoadReturning(inst *pipeline.DynInst, now int64)
	OnLoadReturn(inst *pipeline.DynInst, now int64)
	OnSquash(inst *pipeline.DynInst, now int64)
	Tick(now int64)

	// attach sizes per-thread state for cpu.
	attach(cpu *pipeline.CPU)
	// reset clears every gate.
	reset()
	// classify writes every thread's class for this cycle.
	classify(class []pipeline.GateClass)
	// params renders the detector's tuning (pipeline.FetchPolicy.Params).
	params() string
}

// nopEvents provides no-op event hooks and reset so detectors only
// override what they need.
type nopEvents struct{}

func (nopEvents) OnFetch(*pipeline.DynInst, int64)         {}
func (nopEvents) OnLoadAccess(*pipeline.DynInst, int64)    {}
func (nopEvents) OnL2Miss(*pipeline.DynInst, int64)        {}
func (nopEvents) OnLoadReturning(*pipeline.DynInst, int64) {}
func (nopEvents) OnLoadReturn(*pipeline.DynInst, int64)    {}
func (nopEvents) OnSquash(*pipeline.DynInst, int64)        {}
func (nopEvents) Tick(int64)                               {}
func (nopEvents) reset()                                   {}

// Policy is a fetch policy: a detector under the shared ICOUNT-group
// response. Build one through the registry (NewPolicyParams,
// MustNewPolicy); each simulation needs its own instance. The
// detector's event hooks satisfy pipeline.FetchPolicy by promotion.
type Policy struct {
	detector
	name string
	// keepOne lists the best gated thread when no thread is normal or
	// demoted (the paper's STALL/FLUSH rule: the mechanism always keeps
	// one thread running). DG and PDG gate strictly.
	keepOne bool
	cpu     *pipeline.CPU
	// class is each thread's group from the latest Priority call;
	// demoted is Priority's scratch. Both are sized at Attach so the
	// per-cycle path never allocates.
	class   []pipeline.GateClass
	demoted []int
}

// Name implements pipeline.FetchPolicy.
func (p *Policy) Name() string { return p.name }

// Params implements pipeline.FetchPolicy; it is empty for ICOUNT,
// which has no parameters.
func (p *Policy) Params() string { return p.detector.params() }

// Attach implements pipeline.FetchPolicy.
func (p *Policy) Attach(cpu *pipeline.CPU) {
	n := cpu.NumThreads()
	p.cpu = cpu
	p.class = make([]pipeline.GateClass, n)
	p.demoted = make([]int, 0, n)
	p.detector.attach(cpu)
}

// Reset implements pipeline.FetchPolicy.
func (p *Policy) Reset() { p.detector.reset() }

// Priority implements pipeline.FetchPolicy, the shared response: normal
// threads first, then demoted threads, ICOUNT order within each group;
// gated threads are left out, except that a keepOne policy lists the
// best gated thread when nothing else may fetch. That thread stays
// classified gated: attribution charges the policy's decision, not the
// liveness escape hatch.
func (p *Policy) Priority(now int64, dst []int) []int {
	rot := int(now % int64(len(p.class)))
	p.detector.classify(p.class)
	out := dst
	demoted := p.demoted[:0]
	for t, c := range p.class {
		switch c {
		case pipeline.GateNormal:
			out = append(out, t)
		case pipeline.GateDemoted:
			demoted = append(demoted, t)
		}
	}
	icountOrder(p.cpu, rot, out)
	if len(demoted) > 0 {
		icountOrder(p.cpu, rot, demoted)
		out = append(out, demoted...)
	}
	if len(out) == 0 && p.keepOne {
		// Nothing is normal or demoted, so every thread is gated.
		for t := range p.class {
			out = append(out, t)
		}
		icountOrder(p.cpu, rot, out)
		out = out[:1]
	}
	return out
}

// GateClass implements pipeline.FetchPolicy: the thread's class as
// recorded by the latest Priority call.
func (p *Policy) GateClass(t int) pipeline.GateClass { return p.class[t] }

// gatedIf is the class of a detector that only gates.
func gatedIf(gate bool) pipeline.GateClass {
	if gate {
		return pipeline.GateGated
	}
	return pipeline.GateNormal
}

// icount is ICOUNT's detector (Tullsen et al.): no trigger, so every
// thread stays normal and fetch follows the pre-issue count alone.
type icount struct{ nopEvents }

func (icount) attach(*pipeline.CPU)          {}
func (icount) classify([]pipeline.GateClass) {} // Attach zeroes class: all normal
func (icount) params() string                { return "" }
