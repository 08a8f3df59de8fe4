package pipeline

import (
	"cmp"
	"fmt"
	"slices"

	"dwarn/internal/bpred"
	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/mem/hierarchy"
	"dwarn/internal/workload"
)

// CPUStats aggregates whole-core counters for a measurement interval.
type CPUStats struct {
	Cycles int64
}

// regBitset tracks physical-register ready bits, one bit per register.
// The hot regReady/setRegReady paths touch a handful of cache lines
// instead of a 384-entry []bool.
type regBitset []uint64

func newRegBitset(n int) regBitset { return make(regBitset, (n+63)/64) }

func (b regBitset) get(p int32) bool { return b[p>>6]&(1<<(uint32(p)&63)) != 0 }
func (b regBitset) set(p int32)      { b[p>>6] |= 1 << (uint32(p) & 63) }
func (b regBitset) clear(p int32)    { b[p>>6] &^= 1 << (uint32(p) & 63) }

// readyEntry is one ready-list slot. It carries the instruction's age
// so that keeping the list sorted and merging the list heads at issue
// compare ages without loading the instructions.
type readyEntry struct {
	age uint64
	d   *DynInst
}

// waiter is one queued instruction waiting for a register's value. gen
// snapshots the instruction's arena generation, as events do: a waiter
// squashed while it waited is left on the list, and the mismatch (or a
// state other than stInQueue) marks the entry stale at wakeup.
//
// Every register's list is a chain through one store of waiters that
// all registers share (CPU.waitNodes), linked by index: next is the
// following entry of the same list, or of the free chain, and -1 ends a
// chain. The store is sized once, at New, so neither dispatch nor
// wakeup grows a per-register array.
type waiter struct {
	d    *DynInst
	gen  uint32
	next int32
}

// waitList is one register's chain of waiters in dispatch order: head
// is woken first, tail is where waitFor appends. Both are -1 when the
// list is empty.
type waitList struct{ head, tail int32 }

// CPU is one simulated SMT core running a fixed set of threads under a
// fetch policy. It is not safe for concurrent use; run one CPU per
// goroutine.
type CPU struct {
	cfg    *config.Processor
	policy FetchPolicy
	mem    *hierarchy.Hierarchy
	bp     *bpred.Predictor

	threads []*thread

	now int64
	// rot is now modulo the thread count, kept by Step: commit's
	// starting thread and dispatch's fallback order rotate with it.
	rot    int
	ageCtr uint64
	events eventQueue
	arena  instArena

	// Shared physical register files: free lists and ready bitsets.
	intFree  []int32
	fpFree   []int32
	intReady regBitset
	fpReady  regBitset

	// Shared issue queues. A queue is an occupancy count, not a list:
	// the ROBs hold its instructions. qLen counts queue q's stInQueue
	// entries; qIssued counts the entries issued in this cycle's issue
	// phase, whose slots stay taken through this cycle's dispatch and
	// free at the next issue phase. ready[q] lists, oldest first, the
	// queued entries whose sources are all ready — the only entries
	// issue looks at. An entry still waiting for a source sits on that
	// register's waiter list until setRegReady wakes it.
	qLen    [isa.NumQueues]int
	qIssued [isa.NumQueues]int
	qCap    [isa.NumQueues]int
	ready   [isa.NumQueues][]readyEntry

	// Per-physical-register waiter lists, indexed like the ready
	// bitsets, chained through waitNodes; freeWait heads the chain of
	// free entries (-1 when none).
	intWaiters []waitList
	fpWaiters  []waitList
	waitNodes  []waiter
	freeWait   int32

	// replayBuf is squashYounger's scratch, reused across cycles.
	replayBuf []isa.Uop

	// dispatchOrder is the front-end thread order for this cycle: the
	// policy's fetch priority with any omitted (gated) threads at the
	// end. The in-order front end is a unit — a thread the policy has
	// deprioritised should not push buffered instructions into the
	// shared queues ahead of preferred threads. Fetch asks the policy
	// for its priority straight into this buffer.
	dispatchOrder []int
	// dispatchLive is dispatch's scratch list of threads still able to
	// dispatch this cycle.
	dispatchLive []int

	// lastCommitAt backs the livelock detector.
	lastCommitAt int64

	// Observability counters kept outside ThreadStats: ThreadStats
	// feeds the golden counter digests, so telemetry-only counters live
	// here. issued counts instructions launched into execution per
	// thread; gateCycles attributes each cycle's fetch-gate decision
	// class per thread, as the policy's GateClass reports it, filled
	// only while gate sampling is enabled (timeline runs).
	issued       []uint64
	gateCycles   [][NumGateClasses]uint64
	gateSampling bool

	// Stats for the current measurement interval.
	Stats CPUStats
}

// eventHorizon bounds how far ahead of now any event can be scheduled:
// the worst-case load (DTLB miss, L1 miss, L2 miss) plus slack for the
// address-generation cycle and the longest execution latencies. The
// calendar queue's ring is sized from it so overflow stays empty.
func eventHorizon(cfg *config.Processor) int64 {
	h := int64(cfg.TLBMissPenalty) + int64(cfg.DCache.HitLatency) +
		int64(cfg.L1ToL2Latency) + int64(cfg.MemLatency)
	if l := int64(cfg.FPLatency); l > int64(cfg.IntMulLatency) {
		h += l
	} else {
		h += int64(cfg.IntMulLatency)
	}
	return h + 8
}

// New builds a CPU running one thread per uop stream under the given
// policy. len(srcs) must not exceed cfg.HardwareContexts. A stream's
// producer may be a live synthetic generator, a shared tape or a trace
// decoder; the pipeline only reads the stream.
func New(cfg *config.Processor, policy FetchPolicy, srcs []*workload.Stream) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("pipeline: need at least one thread")
	}
	if len(srcs) > cfg.HardwareContexts {
		return nil, fmt.Errorf("pipeline: %d threads exceed %d hardware contexts", len(srcs), cfg.HardwareContexts)
	}
	n := len(srcs)
	c := &CPU{
		cfg:    cfg,
		policy: policy,
		mem:    hierarchy.New(cfg, n),
		bp:     bpred.New(cfg.Bpred, n),
		now:    1,
	}
	c.events.init(eventHorizon(cfg), c.now)
	// One squash recycles at most one thread's fetch queue and ROB.
	c.replayBuf = make([]isa.Uop, 0, cfg.FetchQueueSize+cfg.ROBSizePerThread)
	c.qCap[isa.QInt] = cfg.IntQueueSize
	c.qCap[isa.QFP] = cfg.FPQueueSize
	c.qCap[isa.QLS] = cfg.LSQueueSize
	for q := range c.ready {
		c.ready[q] = make([]readyEntry, 0, c.qCap[q])
	}
	c.intWaiters = newWaitLists(cfg.PhysIntRegs)
	c.fpWaiters = newWaitLists(cfg.PhysFPRegs)
	c.freeWait = -1
	// Live waiters are at most two per queued instruction; squashed
	// ones linger until their register wakes or is reallocated. Four
	// times the live bound covers the most ever seen at once on the
	// paper's workloads (303, FLUSH on 8-MEM), so the store does not
	// grow once a run is under way.
	c.waitNodes = make([]waiter, 0, 8*(cfg.IntQueueSize+cfg.FPQueueSize+cfg.LSQueueSize))

	// Physical registers: each running context permanently holds its 32
	// architectural mappings; the remainder forms the shared rename pool.
	c.intReady = newRegBitset(cfg.PhysIntRegs)
	c.fpReady = newRegBitset(cfg.PhysFPRegs)
	c.threads = make([]*thread, n)
	for i, src := range srcs {
		// Fetch and dispatch stop at these bounds, so neither deque
		// grows once the machine is built.
		t := &thread{id: i, src: src,
			feq: newInstDeque(cfg.FetchQueueSize),
			rob: newInstDeque(cfg.ROBSizePerThread)}
		for a := 0; a < isa.NumIntRegs; a++ {
			p := int32(i*isa.NumIntRegs + a)
			t.intMap[a] = p
			c.intReady.set(p)
		}
		for a := 0; a < isa.NumFPRegs; a++ {
			p := int32(i*isa.NumFPRegs + a)
			t.fpMap[a] = p
			c.fpReady.set(p)
		}
		c.threads[i] = t
	}
	for p := int32(n * isa.NumIntRegs); p < int32(cfg.PhysIntRegs); p++ {
		c.intFree = append(c.intFree, p)
	}
	for p := int32(n * isa.NumFPRegs); p < int32(cfg.PhysFPRegs); p++ {
		c.fpFree = append(c.fpFree, p)
	}
	c.rot = int(c.now) % n
	c.dispatchOrder = make([]int, 0, n)
	c.dispatchLive = make([]int, 0, n)
	c.issued = make([]uint64, n)
	c.gateCycles = make([][NumGateClasses]uint64, n)

	policy.Attach(c)
	return c, nil
}

// Release hands the machine's large buffers (the caches' line arrays,
// the event ring with its buckets' capacity, the instruction arena's
// slabs) back to their pools, where the next New of any shape takes
// them. Call it once the run's results have been read: nothing may use
// the CPU, its memory hierarchy or its DynInsts afterwards. A second
// Release is a no-op.
func (c *CPU) Release() {
	c.mem.Release()
	c.events.release()
	c.arena.release()
}

// Config returns the machine description.
func (c *CPU) Config() *config.Processor { return c.cfg }

// Mem returns the memory hierarchy (read access for experiments/tests).
func (c *CPU) Mem() *hierarchy.Hierarchy { return c.mem }

// Bpred returns the branch predictor (read access for experiments/tests).
func (c *CPU) Bpred() *bpred.Predictor { return c.bp }

// Policy returns the attached fetch policy.
func (c *CPU) Policy() FetchPolicy { return c.policy }

// NumThreads returns the number of running hardware contexts.
func (c *CPU) NumThreads() int { return len(c.threads) }

// Now returns the current cycle.
func (c *CPU) Now() int64 { return c.now }

// PreIssueCount returns the number of thread t's instructions in the
// front end and issue queues — the ICOUNT priority input.
func (c *CPU) PreIssueCount(t int) int {
	th := c.threads[t]
	return th.feq.len() + th.inQueues
}

// L1DMissInFlight returns thread t's outstanding L1 data-miss count —
// the hardware counter DWarn and DG consult.
func (c *CPU) L1DMissInFlight(t int) int { return c.threads[t].l1MissInFlight }

// ROBOccupancy returns the number of in-flight instructions in thread
// t's reorder buffer.
func (c *CPU) ROBOccupancy(t int) int { return c.threads[t].rob.len() }

// ThreadStats returns a copy of thread t's counters for the current
// measurement interval.
func (c *CPU) ThreadStats(t int) ThreadStats { return c.threads[t].stats }

// IssuedUops returns thread t's instructions launched into execution
// during the current measurement interval. Kept outside ThreadStats so
// the golden counter digests (which hash ThreadStats verbatim) are
// unchanged by telemetry.
func (c *CPU) IssuedUops(t int) uint64 { return c.issued[t] }

// EnableGateSampling turns on per-cycle fetch-gate attribution: from
// now on each cycle charges every thread's GateCycles bucket with the
// policy's decision class. Off by default so runs without timeline
// sampling pay nothing for it.
func (c *CPU) EnableGateSampling() {
	c.gateSampling = true
}

// GateCycles returns thread t's cycles-per-gate-class counters for the
// current measurement interval (all zero unless EnableGateSampling was
// called).
func (c *CPU) GateCycles(t int) [NumGateClasses]uint64 { return c.gateCycles[t] }

// ResetStats zeroes all measurement counters (pipeline, memory,
// predictor) while preserving microarchitectural state, so measurement
// starts from a warmed-up machine.
func (c *CPU) ResetStats() {
	c.Stats = CPUStats{}
	for _, t := range c.threads {
		t.stats = ThreadStats{}
	}
	for i := range c.issued {
		c.issued[i] = 0
		c.gateCycles[i] = [NumGateClasses]uint64{}
	}
	c.mem.ResetStats()
	for i := range c.bp.Stats {
		c.bp.Stats[i] = bpred.Stats{}
	}
	c.lastCommitAt = c.now
}

func (c *CPU) schedule(at int64, kind evKind, inst *DynInst) {
	c.events.schedule(at, kind, inst)
}

// allocReg pops a free physical register for the given space, returning
// -1 if none is available.
func (c *CPU) allocReg(fp bool) int32 {
	if fp {
		if n := len(c.fpFree); n > 0 {
			p := c.fpFree[n-1]
			c.fpFree = c.fpFree[:n-1]
			return p
		}
		return -1
	}
	if n := len(c.intFree); n > 0 {
		p := c.intFree[n-1]
		c.intFree = c.intFree[:n-1]
		return p
	}
	return -1
}

func (c *CPU) freeReg(fp bool, p int32) {
	if fp {
		c.fpFree = append(c.fpFree, p)
	} else {
		c.intFree = append(c.intFree, p)
	}
}

// FreeIntRegs and FreeFPRegs report rename-pool headroom (observability
// for tests and resource-aware policies).
func (c *CPU) FreeIntRegs() int { return len(c.intFree) }
func (c *CPU) FreeFPRegs() int  { return len(c.fpFree) }

// QueueLen returns the live occupancy of issue queue q: the
// instructions waiting in it, not counting slots held by entries
// issued this cycle.
func (c *CPU) QueueLen(q isa.Queue) int { return c.qLen[q] }

// usesFPRegs reports which register space an instruction's operands live
// in (the synthetic ISA never mixes spaces within one instruction).
func usesFPRegs(class isa.Class) bool { return class.UsesFP() }

// regReady reports whether physical register p of the given space holds
// a value.
func (c *CPU) regReady(fp bool, p int32) bool {
	if p < 0 {
		return true
	}
	if fp {
		return c.fpReady.get(p)
	}
	return c.intReady.get(p)
}

// newWaitLists returns n empty waiter lists.
func newWaitLists(n int) []waitList {
	ls := make([]waitList, n)
	for i := range ls {
		ls[i] = waitList{head: -1, tail: -1}
	}
	return ls
}

// waiters returns physical register p's waiter list.
func (c *CPU) waiters(fp bool, p int32) *waitList {
	if fp {
		return &c.fpWaiters[p]
	}
	return &c.intWaiters[p]
}

// clearWaiters empties l, splicing its whole chain onto the free chain.
func (c *CPU) clearWaiters(l *waitList) {
	if l.head < 0 {
		return
	}
	c.waitNodes[l.tail].next = c.freeWait
	c.freeWait = l.head
	*l = waitList{head: -1, tail: -1}
}

// setRegReady marks physical register p as holding its value and wakes
// the queued instructions waiting for it: each live waiter's pending
// count drops, and one that reaches zero joins its queue's ready list.
func (c *CPU) setRegReady(fp bool, p int32) {
	if p < 0 {
		return
	}
	if fp {
		c.fpReady.set(p)
	} else {
		c.intReady.set(p)
	}
	l := c.waiters(fp, p)
	for n := l.head; n >= 0; n = c.waitNodes[n].next {
		w := &c.waitNodes[n]
		d := w.d
		if w.gen != d.gen || d.state != stInQueue {
			continue
		}
		d.pending--
		if d.pending == 0 {
			c.insertReady(d)
		}
	}
	c.clearWaiters(l)
}

// waitFor puts a just-dispatched d on source register p's waiter list
// if p has no value yet.
func (c *CPU) waitFor(d *DynInst, p int32) {
	if c.regReady(d.fpRegs, p) {
		return
	}
	n := c.freeWait
	if n >= 0 {
		c.freeWait = c.waitNodes[n].next
	} else {
		n = int32(len(c.waitNodes))
		c.waitNodes = append(c.waitNodes, waiter{})
	}
	c.waitNodes[n] = waiter{d: d, gen: d.gen, next: -1}
	l := c.waiters(d.fpRegs, p)
	if l.tail >= 0 {
		c.waitNodes[l.tail].next = n
	} else {
		l.head = n
	}
	l.tail = n
	d.pending++
}

// insertReady adds d to its queue's ready list, keeping the list
// age-sorted. A dispatched d is usually the youngest entry (ages follow
// fetch order), so the common case is a plain append; a woken d may be
// older and shifts the younger entries up.
func (c *CPU) insertReady(d *DynInst) {
	q := d.U.Class.QueueFor()
	e := readyEntry{age: d.Age, d: d}
	rl := append(c.ready[q], e)
	i := len(rl) - 1
	for ; i > 0 && rl[i-1].age > e.age; i-- {
		rl[i] = rl[i-1]
	}
	rl[i] = e
	c.ready[q] = rl
}

// removeReady drops a squashed d from its queue's ready list. It must
// leave at once: the arena may hand d back to fetch this same cycle.
// Squashes take the youngest entries, so the search starts at the tail.
func (c *CPU) removeReady(d *DynInst) {
	q := d.U.Class.QueueFor()
	rl := c.ready[q]
	for i := len(rl) - 1; i >= 0; i-- {
		if rl[i].d == d {
			c.ready[q] = append(rl[:i], rl[i+1:]...)
			return
		}
	}
}

// FlushAfter squashes every instruction of inst's thread younger than
// inst, queueing the squashed correct-path instructions for re-fetch.
// It implements the FLUSH policy's response action; the offending load
// itself survives. It returns the number of squashed instructions.
func (c *CPU) FlushAfter(inst *DynInst) int {
	if inst.Squashed() {
		return 0
	}
	t := c.threads[inst.Thread]
	n := c.squashYounger(t, inst.Age, true)
	t.stats.FlushSquashed += uint64(n)
	return n
}

// squashYounger removes every instruction of t younger than age from the
// pipeline. When replay is true (policy flush) the squashed correct-path
// uops are queued for re-fetch in program order; when false (branch
// misprediction) they are dropped. Returns the number squashed.
//
// Squashed instructions are recycled into the arena immediately, and
// fetch may reuse them this same cycle. squashInFlight has already
// taken each one off its queue's ready list and occupancy count; its
// pending events and register waiter entries are invalidated by the
// generation bump.
func (c *CPU) squashYounger(t *thread, age uint64, replay bool) int {
	wasWP := t.wrongPath
	// A peeked-but-unfetched uop must not leak: push a correct-path one
	// back onto the replay stack (it is younger than everything being
	// squashed, so it is re-fetched after them), drop a wrong-path one.
	t.dropPeek(&c.arena, wasWP)

	count := 0
	// The oldest squashed correct-path branch decides the predictor
	// restore point. Its checkpoint is copied out because the DynInst is
	// recycled before the walk finishes.
	var oldestBranchAge uint64
	var oldestBranchPred bpred.Prediction
	haveBranch := false
	pendingSquashed := false
	replayBuf := c.replayBuf[:0]

	note := func(d *DynInst) {
		count++
		if d.U.Class.IsBranch() && !d.U.WrongPath {
			if !haveBranch || d.Age < oldestBranchAge {
				oldestBranchAge, oldestBranchPred, haveBranch = d.Age, d.Pred, true
			}
		}
		if d.U.Class == isa.Load {
			// Policies tracking this load (miss counters, PDG's
			// predicted-miss count) rebalance here.
			c.policy.OnSquash(d, c.now)
		}
		if replay && !d.U.WrongPath {
			replayBuf = append(replayBuf, d.U)
		}
		if d == t.pendingBranch {
			pendingSquashed = true
		}
		c.arena.put(d)
	}

	// Front-end queue first (all entries are younger than any dispatched
	// instruction, but guard on age anyway); keep survivors in order.
	if n := t.feq.len(); n > 0 {
		kept := 0
		for i := 0; i < n; i++ {
			d := t.feq.at(i)
			if d.Age > age {
				d.state = stSquashed
				note(d)
			} else {
				t.feq.buf[t.feq.head+kept] = d
				kept++
			}
		}
		t.feq.truncate(kept)
	}

	// ROB tail walk: undo renaming youngest-first so the map ends up at
	// its pre-squash state.
	cut := t.rob.len()
	for cut > 0 && t.rob.at(cut-1).Age > age {
		d := t.rob.at(cut - 1)
		cut--
		c.squashInFlight(t, d)
		note(d)
	}
	t.rob.truncate(cut)

	// Replay order: squashed uops are older than whatever was already
	// on the stack (including the peeked uop pushed above), so they are
	// fetched first — pushed last, youngest-to-oldest. Correct-path uops
	// of one thread have strictly increasing Seq, which is exactly
	// program order.
	if replay && len(replayBuf) > 0 {
		sortUopsBySeq(replayBuf)
		for i := len(replayBuf) - 1; i >= 0; i-- {
			t.replay = append(t.replay, replayBuf[i])
		}
	}
	c.replayBuf = replayBuf[:0]

	// Restore speculative predictor state to the oldest squashed branch.
	if haveBranch {
		c.bp.Restore(t.id, oldestBranchPred.Before)
	}

	// If the unresolved mispredicted branch died, leave wrong-path mode:
	// fetch resumes from the replay stack / generator.
	if pendingSquashed {
		t.pendingBranch = nil
		t.wrongPath = false
	}
	return count
}

// squashInFlight tears down one dispatched instruction: issue-queue
// slot, rename mapping, physical register, and the thread's in-flight
// miss counter. A queued entry frees its slot at once and leaves the
// ready list eagerly; waiter-list entries are left to go stale.
func (c *CPU) squashInFlight(t *thread, d *DynInst) {
	if d.state == stInQueue {
		t.inQueues--
		c.qLen[d.U.Class.QueueFor()]--
		if d.pending == 0 {
			c.removeReady(d)
		}
	}
	if d.U.Class == isa.Load && d.missCounted {
		t.l1MissInFlight--
		d.missCounted = false
	}
	if d.destPhys >= 0 {
		fp := d.fpRegs
		// Restore the previous mapping and recycle the register.
		arch := d.U.Dest
		if fp {
			t.fpMap[arch] = d.prevPhys
		} else {
			t.intMap[arch] = d.prevPhys
		}
		c.freeReg(fp, d.destPhys)
		d.destPhys = -1
	}
	d.state = stSquashed
}

// seqSortCutoff is the batch size above which sortUopsBySeq switches
// from insertion sort to the library sort: full-ROB FLUSH squashes on
// 8-thread MEM workloads hand it hundreds of uops, where insertion
// sort's O(n²) worst case dominated squash cost.
const seqSortCutoff = 32

// sortUopsBySeq sorts by dynamic sequence number (program order for
// correct-path uops of a single thread). Small, mostly-ordered batches
// use insertion sort; large flush batches fall back to slices.SortFunc.
// Seq values are unique within a batch, so both produce the same order.
func sortUopsBySeq(us []isa.Uop) {
	if len(us) > seqSortCutoff {
		slices.SortFunc(us, func(a, b isa.Uop) int { return cmp.Compare(a.Seq, b.Seq) })
		return
	}
	for i := 1; i < len(us); i++ {
		for j := i; j > 0 && us[j].Seq < us[j-1].Seq; j-- {
			us[j], us[j-1] = us[j-1], us[j]
		}
	}
}

// DumpState renders a diagnostic snapshot of the pipeline for debugging
// and livelock reports.
func (c *CPU) DumpState() string {
	s := fmt.Sprintf("cycle %d: freeInt=%d freeFP=%d q[int]=%d q[fp]=%d q[ls]=%d ready=%d/%d/%d events=%d\n",
		c.now, len(c.intFree), len(c.fpFree),
		c.qLen[0], c.qLen[1], c.qLen[2],
		len(c.ready[0]), len(c.ready[1]), len(c.ready[2]), c.events.len())
	for _, t := range c.threads {
		s += fmt.Sprintf("  t%d: feq=%d rob=%d inQ=%d missInFlight=%d wrongPath=%v replay=%d icacheReadyAt=%d redirectAt=%d\n",
			t.id, t.feq.len(), t.rob.len(), t.inQueues, t.l1MissInFlight, t.wrongPath, len(t.replay), t.icacheReadyAt, t.redirectAt)
		if t.rob.len() > 0 {
			d := t.rob.front()
			s += fmt.Sprintf("      robHead: class=%v state=%d age=%d seq=%d wp=%v completeAt=%d pc=%x\n",
				d.U.Class, d.state, d.Age, d.U.Seq, d.U.WrongPath, d.completeAt, d.U.PC)
		}
		if t.feq.len() > 0 {
			d := t.feq.front()
			s += fmt.Sprintf("      feqHead: class=%v state=%d age=%d readyAt=%d\n", d.U.Class, d.state, d.Age, d.frontEndReadyAt)
		}
	}
	return s
}

// CheckInvariants validates the resource-accounting invariants the
// squash/flush/commit machinery must preserve. Tests call it after
// arbitrary run prefixes, and sim.Options.CheckEvery between cycles of
// a real run; a violation indicates a leak (registers, queue slots,
// ready-list entries, miss counters) that would silently skew results.
func (c *CPU) CheckInvariants() error {
	// Physical registers: every architecturally mapped register and
	// every in-flight destination must be live exactly once; together
	// with the free lists they must account for the whole file.
	intLive := make(map[int32]string)
	fpLive := make(map[int32]string)
	claim := func(m map[int32]string, p int32, who string) error {
		if p < 0 {
			return nil
		}
		if prev, ok := m[p]; ok {
			return fmt.Errorf("pipeline: phys reg %d claimed by both %s and %s", p, prev, who)
		}
		m[p] = who
		return nil
	}
	for _, t := range c.threads {
		for a, p := range t.intMap {
			if err := claim(intLive, p, fmt.Sprintf("t%d intMap[r%d]", t.id, a)); err != nil {
				return err
			}
		}
		for a, p := range t.fpMap {
			if err := claim(fpLive, p, fmt.Sprintf("t%d fpMap[f%d]", t.id, a)); err != nil {
				return err
			}
		}
		for i := 0; i < t.rob.len(); i++ {
			d := t.rob.at(i)
			if d.destPhys < 0 {
				continue
			}
			m := intLive
			if usesFPRegs(d.U.Class) {
				m = fpLive
			}
			// The current mapping for the dest arch reg is the youngest
			// writer's reg; older in-flight writers hold regs not in
			// any map. Either way the reg must not be free.
			if _, mapped := m[d.destPhys]; !mapped {
				if err := claim(m, d.destPhys, fmt.Sprintf("t%d rob seq %d", t.id, d.U.Seq)); err != nil {
					return err
				}
			}
		}
	}
	for _, p := range c.intFree {
		if who, ok := intLive[p]; ok {
			return fmt.Errorf("pipeline: int reg %d both free and live (%s)", p, who)
		}
		intLive[p] = "free"
	}
	for _, p := range c.fpFree {
		if who, ok := fpLive[p]; ok {
			return fmt.Errorf("pipeline: fp reg %d both free and live (%s)", p, who)
		}
		fpLive[p] = "free"
	}

	if err := c.checkQueues(); err != nil {
		return err
	}
	for _, t := range c.threads {
		if t.l1MissInFlight < 0 {
			return fmt.Errorf("pipeline: t%d negative miss counter %d", t.id, t.l1MissInFlight)
		}
		if t.rob.len() > c.cfg.ROBSizePerThread {
			return fmt.Errorf("pipeline: t%d ROB %d exceeds %d", t.id, t.rob.len(), c.cfg.ROBSizePerThread)
		}
		// ROB must be in age order with no squashed entries.
		for i := 1; i < t.rob.len(); i++ {
			if t.rob.at(i).Age <= t.rob.at(i-1).Age {
				return fmt.Errorf("pipeline: t%d ROB out of order at %d", t.id, i)
			}
		}
		for i := 0; i < t.rob.len(); i++ {
			if st := t.rob.at(i).state; st == stSquashed || st == stCommitted {
				return fmt.Errorf("pipeline: t%d ROB holds %v entry", t.id, st)
			}
		}
	}
	return nil
}

// checkQueues validates the issue-queue bookkeeping against a
// brute-force rebuild from the ROBs: per-thread inQueues and per-queue
// occupancy match the stInQueue entries, no queue holds more than its
// capacity, every queued entry's pending count matches its unready
// sources, and each ready list is exactly the age-sorted set of queued
// entries whose sources are all ready.
func (c *CPU) checkQueues() error {
	var want [isa.NumQueues][]*DynInst
	var live [isa.NumQueues]int
	for _, t := range c.threads {
		inQ := 0
		for i := 0; i < t.rob.len(); i++ {
			d := t.rob.at(i)
			if d.state != stInQueue {
				continue
			}
			inQ++
			q := d.U.Class.QueueFor()
			live[q]++
			unready := 0
			for _, p := range [2]int32{d.src1Phys, d.src2Phys} {
				if !c.regReady(d.fpRegs, p) {
					unready++
				}
			}
			if int(d.pending) != unready {
				return fmt.Errorf("pipeline: t%d seq %d pending=%d but %d sources unready", t.id, d.U.Seq, d.pending, unready)
			}
			if unready == 0 {
				want[q] = append(want[q], d)
			}
		}
		if t.inQueues != inQ {
			return fmt.Errorf("pipeline: t%d inQueues=%d but queues hold %d", t.id, t.inQueues, inQ)
		}
	}
	for q := range want {
		if c.qLen[q] != live[q] {
			return fmt.Errorf("pipeline: queue %d occupancy %d but ROBs hold %d queued entries", q, c.qLen[q], live[q])
		}
		if n := c.qLen[q] + c.qIssued[q]; n > c.qCap[q] {
			return fmt.Errorf("pipeline: queue %d holds %d entries, capacity %d", q, n, c.qCap[q])
		}
		rl := c.ready[q]
		for i := 1; i < len(rl); i++ {
			if rl[i].age <= rl[i-1].age {
				return fmt.Errorf("pipeline: queue %d ready list not age-sorted at %d", q, i)
			}
		}
		slices.SortFunc(want[q], func(a, b *DynInst) int { return cmp.Compare(a.Age, b.Age) })
		if len(rl) != len(want[q]) {
			return fmt.Errorf("pipeline: queue %d ready list holds %d entries, %d are ready", q, len(rl), len(want[q]))
		}
		for i, e := range rl {
			if e.d != want[q][i] || e.age != e.d.Age {
				return fmt.Errorf("pipeline: queue %d ready list entry %d is seq %d (age %d), want seq %d",
					q, i, e.d.U.Seq, e.age, want[q][i].U.Seq)
			}
		}
	}
	return nil
}
