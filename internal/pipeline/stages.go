package pipeline

import (
	"fmt"

	"dwarn/internal/isa"
)

// Step advances the machine by one cycle. Phases run in reverse pipeline
// order so same-cycle effects flow naturally: completions wake issue,
// issue vacates queue slots for dispatch, dispatch vacates the front-end
// queue for fetch.
func (c *CPU) Step() {
	now := c.now
	c.processEvents(now)
	c.policy.Tick(now)
	c.commit(now)
	c.issue(now)
	c.dispatch(now)
	c.fetch(now)
	c.Stats.Cycles++
	c.now = now + 1
	if c.rot++; c.rot == len(c.threads) {
		c.rot = 0
	}

	if now-c.lastCommitAt > livelockWindow {
		panic(fmt.Sprintf("pipeline: no instruction committed for %d cycles at cycle %d (policy %s)\n%s",
			livelockWindow, now, c.policy.Name(), c.DumpState()))
	}
}

// livelockWindow bounds how long the core may go without committing
// anything before the simulator declares a modelling bug. The largest
// legitimate gap is a pile-up of TLB misses and memory accesses, well
// under this bound.
const livelockWindow = 100_000

// Run advances the machine n cycles.
func (c *CPU) Run(n int64) {
	for i := int64(0); i < n; i++ {
		c.Step()
	}
}

// processEvents applies all events scheduled for cycle now, in schedule
// order (the calendar bucket preserves it). An event whose generation
// no longer matches its instruction's is stale — the instruction was
// squashed and recycled — and is dropped.
func (c *CPU) processEvents(now int64) {
	bucket := c.events.bucketFor(now)
	for i := 0; i < len(bucket); i++ {
		ev := bucket[i]
		d := ev.inst
		if ev.gen != d.gen || d.state == stSquashed {
			continue
		}
		switch ev.kind {
		case evComplete:
			c.complete(d, now)
		case evLoadAccess:
			c.loadAccess(d, now)
		case evL2Miss:
			c.policy.OnL2Miss(d, now)
		case evLoadReturning:
			c.policy.OnLoadReturning(d, now)
		case evBranchResolve:
			c.resolveBranch(d, now)
		}
	}
	c.events.advance(now)
}

// complete marks an instruction's result available and wakes dependents.
func (c *CPU) complete(d *DynInst, now int64) {
	d.state = stDone
	c.setRegReady(d.fpRegs, d.destPhys)
	if d.U.Class == isa.Load {
		t := c.threads[d.Thread]
		if d.missCounted {
			t.l1MissInFlight--
			d.missCounted = false
		}
		// Every completing load is reported: policies track hitting
		// loads too (PDG counts predicted-miss loads that in fact hit).
		c.policy.OnLoadReturn(d, now)
	}
}

// loadAccess fires when a load's D-cache access resolves its tag check:
// the L1 and TLB outcomes become architecturally visible and the miss
// counters the policies watch are updated.
func (c *CPU) loadAccess(d *DynInst, now int64) {
	if d.MemRes.SawMiss() {
		t := c.threads[d.Thread]
		t.l1MissInFlight++
		d.missCounted = true
	}
	c.policy.OnLoadAccess(d, now)
}

// resolveBranch executes a branch: trains the predictor and recovers
// from mispredictions by squashing and redirecting fetch.
func (c *CPU) resolveBranch(d *DynInst, now int64) {
	d.state = stDone
	if d.U.WrongPath {
		return
	}
	c.bp.Resolve(d.Thread, &d.U, d.Pred)
	if !d.Pred.Mispredicted {
		return
	}
	t := c.threads[d.Thread]
	n := c.squashYounger(t, d.Age, false)
	t.stats.MispredictSquashed += uint64(n)
	c.bp.Squash(d.Thread, &d.U, d.Pred)
	if t.pendingBranch == d {
		t.pendingBranch = nil
	}
	t.wrongPath = false
	t.redirectAt = now + int64(c.cfg.MispredictRedirect)
}

// commit retires completed instructions in order, up to CommitWidth per
// cycle shared across threads (rotating the starting thread for
// fairness).
func (c *CPU) commit(now int64) {
	budget := c.cfg.CommitWidth
	n := len(c.threads)
	tid := c.rot
	for i := 0; i < n && budget > 0; i++ {
		t := c.threads[tid]
		if tid++; tid == n {
			tid = 0
		}
		for budget > 0 && t.rob.len() > 0 {
			d := t.rob.front()
			if d.state != stDone {
				break
			}
			c.retire(t, d)
			t.rob.popFront()
			budget--
			c.lastCommitAt = now
		}
	}
}

// retire commits one instruction and recycles it. By commit time every
// event for the instruction has fired (all are scheduled at or before
// completeAt, and completion is what makes it committable), and it left
// its queue's ready list when it issued — so the arena may hand it back
// to fetch immediately.
func (c *CPU) retire(t *thread, d *DynInst) {
	d.state = stCommitted
	if d.destPhys >= 0 && d.prevPhys >= 0 {
		c.freeReg(d.fpRegs, d.prevPhys)
	}
	t.stats.Committed++
	if d.U.Class == isa.Load {
		t.stats.Loads++
		if d.MemRes.L1Miss {
			t.stats.LoadL1Misses++
			if d.MemRes.L2Miss {
				t.stats.LoadL2Misses++
			}
		}
	}
	c.arena.put(d)
}

// issue selects ready instructions oldest-first across the shared
// queues, bounded by issue width and per-class functional unit counts.
//
// Only the ready lists are read: wakeup and dispatch keep each one
// holding exactly its queue's entries whose sources are all ready,
// oldest first. Selection merges the three list heads and stops when
// the budget or all units are spent, so what issues from a queue is a
// prefix of its list. That is the set a scan of every queued entry
// picks: readiness only changes in processEvents, and both take ready
// entries oldest-first, skipping classes whose units are spent.
//
// Issued entries' slots stay taken (qIssued) through this cycle's
// dispatch and free when the next issue phase starts.
func (c *CPU) issue(now int64) {
	c.qIssued = [isa.NumQueues]int{}
	if len(c.ready[isa.QInt])+len(c.ready[isa.QFP])+len(c.ready[isa.QLS]) == 0 {
		return
	}

	budget := c.cfg.IssueWidth
	units := [isa.NumQueues]int{
		isa.QInt: c.cfg.IntUnits,
		isa.QFP:  c.cfg.FPUnits,
		isa.QLS:  c.cfg.LSUnits,
	}
	var idx [isa.NumQueues]int
	for budget > 0 {
		best := -1
		var bestAge uint64
		// Indexing, not ranging over the array: a range copies all
		// three slice headers on every slot.
		for q := range c.ready {
			if units[q] == 0 || idx[q] == len(c.ready[q]) {
				continue
			}
			if age := c.ready[q][idx[q]].age; best < 0 || age < bestAge {
				best, bestAge = q, age
			}
		}
		if best < 0 {
			break
		}
		c.issueOne(c.ready[best][idx[best]].d, now)
		idx[best]++
		units[best]--
		budget--
	}
	for q, k := range idx {
		if k == 0 {
			continue
		}
		rl := c.ready[q]
		c.ready[q] = rl[:copy(rl, rl[k:])]
		c.qLen[q] -= k
		c.qIssued[q] = k
	}
}

// issueOne launches one instruction into execution.
func (c *CPU) issueOne(d *DynInst, now int64) {
	d.state = stExecuting
	c.threads[d.Thread].inQueues--
	c.issued[d.Thread]++

	switch d.U.Class {
	case isa.IntALU:
		d.completeAt = now + 1
		c.schedule(d.completeAt, evComplete, d)
	case isa.IntMul:
		d.completeAt = now + int64(c.cfg.IntMulLatency)
		c.schedule(d.completeAt, evComplete, d)
	case isa.FPALU, isa.FPMul:
		d.completeAt = now + int64(c.cfg.FPLatency)
		c.schedule(d.completeAt, evComplete, d)
	case isa.CondBranch, isa.Jump, isa.Call, isa.Ret:
		d.completeAt = now + 1
		c.schedule(d.completeAt, evBranchResolve, d)
	case isa.Load:
		// One cycle of address generation, then the D-cache access.
		accessAt := now + 1
		d.MemRes = c.mem.Load(d.Thread, d.U.Mem.Addr, accessAt)
		d.completeAt = d.MemRes.CompleteAt
		c.schedule(accessAt, evLoadAccess, d)
		c.schedule(d.completeAt, evComplete, d)
		if d.MemRes.L2Miss {
			l2At := accessAt + int64(c.cfg.DCache.HitLatency) + int64(c.cfg.L1ToL2Latency)
			c.schedule(l2At, evL2Miss, d)
		}
		if d.MemRes.SawMiss() {
			if ret := d.completeAt - 2; ret > accessAt {
				c.schedule(ret, evLoadReturning, d)
			}
		}
	case isa.Store:
		// Stores update cache/TLB state at the access but retire
		// through a store buffer: the pipeline sees them complete right
		// after address generation.
		accessAt := now + 1
		d.MemRes = c.mem.Store(d.Thread, d.U.Mem.Addr, accessAt)
		d.completeAt = accessAt + 1
		c.schedule(d.completeAt, evComplete, d)
	}
}

// dispatch renames and inserts front-end instructions into the issue
// queues, up to DecodeWidth per cycle, visiting threads in the fetch
// policy's priority order from the previous fetch cycle (falling back
// to round-robin before the first fetch).
func (c *CPU) dispatch(now int64) {
	budget := c.cfg.DecodeWidth
	n := len(c.threads)
	live := c.dispatchLive[:0]
	if len(c.dispatchOrder) == n {
		live = append(live, c.dispatchOrder...)
	} else {
		for i, tid := 0, c.rot; i < n; i++ {
			live = append(live, tid)
			if tid++; tid == n {
				tid = 0
			}
		}
	}
	// Each round visits, in order, the threads that dispatched in the
	// previous one. A thread whose head cannot dispatch drops out for
	// the rest of the cycle: during dispatch queue occupancy and ROBs
	// only grow, free registers only shrink, and a thread's front-end
	// head does not change until it dispatches (fetch runs later).
	for budget > 0 && len(live) > 0 {
		kept := live[:0]
		for _, tid := range live {
			if budget == 0 {
				break
			}
			if c.dispatchOne(c.threads[tid], now) {
				budget--
				kept = append(kept, tid)
			}
		}
		live = kept
	}
	c.dispatchLive = live
}

// dispatchOne tries to rename and dispatch t's oldest front-end
// instruction; it reports whether one was dispatched. In-order: the
// first blocked instruction stalls the thread.
func (c *CPU) dispatchOne(t *thread, now int64) bool {
	if t.feq.len() == 0 {
		return false
	}
	d := t.feq.front()
	if d.frontEndReadyAt > now {
		return false
	}
	if t.rob.len() >= c.cfg.ROBSizePerThread {
		return false
	}
	q := d.U.Class.QueueFor()
	if c.qLen[q]+c.qIssued[q] >= c.qCap[q] {
		return false
	}
	fp := d.fpRegs
	if d.U.HasDest() {
		// Check before popping so a failed allocation leaves no trace.
		if fp && len(c.fpFree) == 0 || !fp && len(c.intFree) == 0 {
			return false
		}
	}

	// Rename: read sources, then allocate the destination.
	d.src1Phys = c.lookupMap(t, fp, d.U.Src1)
	d.src2Phys = c.lookupMap(t, fp, d.U.Src2)
	d.destPhys, d.prevPhys = -1, -1
	if d.U.HasDest() {
		p := c.allocReg(fp)
		arch := d.U.Dest
		if fp {
			d.prevPhys = t.fpMap[arch]
			t.fpMap[arch] = p
			c.fpReady.clear(p)
		} else {
			d.prevPhys = t.intMap[arch]
			t.intMap[arch] = p
			c.intReady.clear(p)
		}
		// A free register's waiter list holds only entries squashed
		// while they waited; start its new life empty.
		c.clearWaiters(c.waiters(fp, p))
		d.destPhys = p
	}

	d.state = stInQueue
	c.waitFor(d, d.src1Phys)
	c.waitFor(d, d.src2Phys)
	if d.pending == 0 {
		c.insertReady(d)
	}
	c.qLen[q]++
	t.inQueues++
	t.rob.push(d)
	t.feq.popFront()
	return true
}

func (c *CPU) lookupMap(t *thread, fp bool, r isa.Reg) int32 {
	if r == isa.NoReg {
		return -1
	}
	if fp {
		return t.fpMap[r]
	}
	return t.intMap[r]
}

// fetch asks the policy for thread priorities and fills the fetch
// bandwidth following the x.y mechanism: up to FetchThreads threads
// supply up to FetchWidth total instructions, each thread fetching
// sequentially until a predicted-taken branch or I-cache line boundary.
func (c *CPU) fetch(now int64) {
	// The order is next cycle's dispatch order too (dispatch has
	// already read this cycle's), with any threads the policy omitted
	// (gated) appended at the tail.
	order := c.policy.Priority(now, c.dispatchOrder[:0])
	c.dispatchOrder = order
	if len(order) < len(c.threads) {
		seen := 0
		for _, tid := range order {
			seen |= 1 << tid
		}
		for t := range c.threads {
			if seen&(1<<t) == 0 {
				c.dispatchOrder = append(c.dispatchOrder, t)
			}
		}
	}
	if c.gateSampling {
		c.attributeGates()
	}

	slots := c.cfg.FetchWidth
	threadsUsed := 0
	for _, tid := range order {
		if threadsUsed >= c.cfg.FetchThreads || slots == 0 {
			break
		}
		t := c.threads[tid]
		if t.icacheReadyAt > now {
			t.stats.FetchBlockedICache++
			continue
		}
		if t.redirectAt > now {
			t.stats.FetchBlockedRedirect++
			continue
		}
		if t.feq.len() >= c.cfg.FetchQueueSize {
			t.stats.FetchBlockedFeqFull++
			continue
		}
		threadsUsed++
		t.stats.FetchCycles++
		slots -= c.fetchFrom(t, slots, now)
	}
}

// attributeGates charges this cycle to each thread's fetch-gate
// decision class, as the policy classified it. Called only while gate
// sampling is enabled; it allocates nothing.
func (c *CPU) attributeGates() {
	for t := range c.threads {
		c.gateCycles[t][c.policy.GateClass(t)]++
	}
}

// fetchFrom fetches up to budget instructions from t, returning the
// number fetched.
func (c *CPU) fetchFrom(t *thread, budget int, now int64) int {
	first := t.peek(&c.arena)
	lineMask := ^uint64(c.cfg.ICache.LineBytes - 1)
	if t.ifillValid && first.U.PC&lineMask == t.ifillLine {
		// The outstanding fill carries exactly this line: consume the
		// forwarded data and refresh the cache copy.
		t.ifillValid = false
		c.mem.TouchI(first.U.PC)
	} else {
		t.ifillValid = false
		fr := c.mem.Fetch(t.id, first.U.PC, now)
		if fr.Miss {
			t.icacheReadyAt = fr.CompleteAt
			t.ifillLine = first.U.PC & lineMask
			t.ifillValid = true
			return 0
		}
	}
	lineStart := first.U.PC & lineMask

	n := 0
	for n < budget && t.feq.len() < c.cfg.FetchQueueSize {
		d := t.peek(&c.arena)
		if d.U.PC&lineMask != lineStart {
			break
		}
		t.next = nil
		u := &d.U
		d.Thread = t.id
		d.Age = c.ageCtr
		d.fpRegs = usesFPRegs(u.Class)
		d.destPhys, d.prevPhys, d.src1Phys, d.src2Phys = -1, -1, -1, -1
		d.frontEndReadyAt = now + int64(c.cfg.FrontEndLatency)
		c.ageCtr++
		t.stats.Fetched++
		if u.WrongPath {
			t.stats.WrongPathFetched++
		}
		n++
		t.feq.push(d)
		c.policy.OnFetch(d, now)

		if !u.Class.IsBranch() {
			continue
		}
		// Branch handling: wrong-path branches bypass the predictor and
		// simply steer wrong-path fetch; correct-path branches are
		// predicted, and a misprediction flips the thread into
		// wrong-path mode at the bogus next PC.
		if u.WrongPath {
			if u.Branch.Taken {
				break // fetch stops at a taken branch
			}
			continue
		}
		d.Pred = c.bp.Predict(t.id, u)
		if d.Pred.Mispredicted {
			t.pendingBranch = d
			t.wrongPath = true
			t.src.StartWrongPath(u.Seq, t.src.WrongPathPC(u, d.Pred.Taken))
		} else if d.Pred.Resteer {
			// Decode recomputes the direct target: a short fetch bubble.
			t.redirectAt = now + resteerPenalty
		}
		if d.Pred.Taken {
			break // the front end redirects; no more fetch this cycle
		}
	}
	return n
}

// resteerPenalty is the fetch bubble for a BTB miss on a direct branch
// whose target decode recomputes (two decode stages).
const resteerPenalty = 2
