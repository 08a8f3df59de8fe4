package pipeline

// FetchPolicy is the contract between the fetch stage and an I-fetch
// policy (ICOUNT, STALL, FLUSH, DG, PDG, DWarn). The pipeline notifies
// the policy of the dynamic events a real front end would observe, and
// asks it once per cycle for the thread fetch priority order.
//
// Implementations live in internal/core.
type FetchPolicy interface {
	// Name identifies the policy in output.
	Name() string

	// Attach is called once when the policy is bound to a CPU, before
	// the first cycle. Policies size their per-thread state here.
	Attach(cpu *CPU)

	// Tick is called once per cycle after events are processed and
	// before Priority; timing-based detectors (the 15-cycle L2-miss
	// declaration of STALL/FLUSH) advance here.
	Tick(now int64)

	// Priority appends to dst the threads allowed to fetch this cycle,
	// each at most once, highest priority first, and returns the
	// result. Threads omitted are gated. The pipeline may fetch from
	// fewer threads than listed (fetch mechanism limits, I-cache
	// misses, full queues).
	Priority(now int64, dst []int) []int

	// OnFetch is called for every fetched uop (including wrong-path
	// uops). PDG predicts load L1 misses here.
	OnFetch(inst *DynInst, now int64)

	// OnLoadAccess is called when a load's D-cache access completes its
	// tag check: the L1 hit/miss and DTLB outcomes are architecturally
	// visible at this point. (inst.MemRes also carries the L2 verdict
	// and completion time; honest policies must not read those — the
	// pipeline delivers OnL2Miss/OnLoadReturning at the right cycles.)
	OnLoadAccess(inst *DynInst, now int64)

	// OnL2Miss is called when the L2 tag check for a load actually
	// fails (L1 access + L2 transit later). DWarn's hybrid gate uses it.
	OnL2Miss(inst *DynInst, now int64)

	// OnLoadReturning is the 2-cycle advance indication that a missing
	// load's data is arriving (the paper gives STALL and FLUSH this
	// signal to reduce restart bubbles).
	OnLoadReturning(inst *DynInst, now int64)

	// OnLoadReturn is called when a missing load's data arrives and the
	// thread's in-flight miss counter has been decremented.
	OnLoadReturn(inst *DynInst, now int64)

	// OnSquash is called for every in-flight load the pipeline squashes
	// whose miss was still outstanding, so gating counters stay
	// balanced. It is also called for the offending load of a policy
	// gate if that load itself is squashed.
	OnSquash(inst *DynInst, now int64)

	// Reset clears policy state between runs (microarchitectural state
	// such as PDG's predictor may be preserved; gates must clear).
	Reset()

	// GateClass reports thread t's fetch-gate class as of the latest
	// Priority call. The pipeline reads it right after Priority each
	// cycle while gate sampling is enabled (timeline runs).
	GateClass(t int) GateClass

	// Params renders the tuning Name does not encode (declaration
	// thresholds, gate counts) stably and readably; empty when there
	// is none. Content-addressed caches fold it into their keys so a
	// threshold sweep never collides with the base policy.
	Params() string
}

// GateClass is the fetch-gate treatment a policy applied to one thread
// for one cycle — the decision the timeline's gate attribution charges
// cycles to.
type GateClass uint8

const (
	// GateNormal: listed at full priority.
	GateNormal GateClass = iota
	// GateDemoted: listed, but behind the normal group (DWarn's Dmiss
	// group).
	GateDemoted
	// GateGated: withheld from fetch (including a gated thread kept
	// running only by the keep-one-thread rule).
	GateGated
	// NumGateClasses sizes per-class counter arrays.
	NumGateClasses
)

// String returns the class's lowercase name.
func (g GateClass) String() string {
	switch g {
	case GateNormal:
		return "normal"
	case GateDemoted:
		return "demoted"
	case GateGated:
		return "gated"
	}
	return "unknown"
}
