package pipeline

import "dwarn/internal/bufpool"

// event kinds, processed at the top of each cycle.
type evKind uint8

const (
	// evComplete: the instruction's result is available (ALU latency
	// elapsed, load data arrived, store left the AGU).
	evComplete evKind = iota
	// evLoadAccess: the load's D-cache access happens now; policies are
	// told about L1/TLB outcomes.
	evLoadAccess
	// evL2Miss: the L2 tag check failed now (true L2-miss detection,
	// used by DWarn's hybrid gate).
	evL2Miss
	// evLoadReturning: the 2-cycle advance indication that load data is
	// coming back (used by STALL/FLUSH/DWarn to release gates early).
	evLoadReturning
	// evBranchResolve: the branch executes now; mispredictions squash.
	evBranchResolve
)

// event is one scheduled event. It carries no cycle: the bucket it sits
// in is its cycle.
type event struct {
	inst *DynInst
	// gen snapshots inst.gen at schedule time. The arena bumps gen when
	// an instruction is recycled, so a stale event for a squashed (and
	// possibly reused) DynInst is detected by a mismatch and skipped.
	gen  uint32
	kind evKind
}

// lateEvent is an event beyond the ring's window, with its cycle.
type lateEvent struct {
	at int64
	event
}

// eventQueue is a calendar queue: a ring of per-cycle buckets covering
// the window (now, now+horizon], plus a rarely-used overflow list for
// events beyond it. Event latencies are bounded by the memory system
// (TLB-miss penalty + L1→L2 + main memory), so with a horizon sized
// from the machine configuration every event lands in a bucket and
// scheduling/draining is O(1) with zero steady-state allocations —
// unlike the container/heap it replaces, which boxed one allocation
// into an interface{} per Push and per Pop.
//
// Determinism: the previous heap ordered events by (at, seq) where seq
// was the global schedule order. Buckets are append-only and drained
// front to back, and overflow events migrate into a bucket before any
// later-scheduled event can target that cycle, so within a bucket
// events sit in exactly that schedule order. The processing order is
// bit-identical to the heap's.
type eventQueue struct {
	buckets [][]event
	mask    int64
	// now is the last drained cycle: buckets cover (now, now+H].
	now   int64
	count int
	// overflow holds events beyond the horizon in schedule order. Empty
	// for every stock machine configuration; custom configs with longer
	// latencies than the sized horizon fall back to it for correctness.
	overflow []lateEvent
}

// ringPool recycles rings between machines with the same horizon. A
// released ring keeps its buckets' capacity, so the next run's warm-up
// does not regrow them.
var ringPool bufpool.Slices[[]event]

// bucketCap is a new ring's capacity per bucket, carved from one array.
// A bucket has no static bound: every load that merged into one
// in-flight fill completes in the fill's cycle. The most seen in one
// bucket was 20, over 30k steady-state cycles of every stock machine,
// ten workloads from 2-ILP to 8-MEM, every policy and seeds 1–3 and 42;
// 16 let a few of those runs grow a bucket in the cycle loop.
const bucketCap = 32

// init sizes the ring to cover horizon cycles of look-ahead and primes
// the window to start at cycle start. A recycled ring's buckets are
// emptied and their old events zeroed, so they pin no DynInst.
func (q *eventQueue) init(horizon, start int64) {
	size := int64(64)
	for size < horizon {
		size <<= 1
	}
	q.buckets = ringPool.Get(int(size))
	var carve []event
	for i, b := range q.buckets {
		if b == nil {
			if carve == nil {
				carve = make([]event, size*bucketCap)
			}
			b = carve[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
		}
		clear(b[:cap(b)])
		q.buckets[i] = b[:0]
	}
	q.mask = size - 1
	q.now = start - 1
}

// release hands the ring back to the pool. The queue must not be used
// afterwards; a second release is a no-op.
func (q *eventQueue) release() {
	ringPool.Put(q.buckets)
	q.buckets = nil
	q.overflow = nil
}

// schedule enqueues an event for cycle at. Events scheduled for the
// current cycle or earlier fire next cycle, matching the heap's
// behaviour (the pipeline drains cycle N's events before any phase of
// cycle N can schedule).
func (q *eventQueue) schedule(at int64, kind evKind, inst *DynInst) {
	if at <= q.now {
		at = q.now + 1
	}
	ev := event{inst: inst, gen: inst.gen, kind: kind}
	q.count++
	if at-q.now <= int64(len(q.buckets)) {
		idx := at & q.mask
		q.buckets[idx] = append(q.buckets[idx], ev)
		return
	}
	q.overflow = append(q.overflow, lateEvent{at, ev})
}

// bucketFor returns the bucket holding cycle now's events. The caller
// must drain it fully, then call advance(now) exactly once.
func (q *eventQueue) bucketFor(now int64) []event {
	return q.buckets[now&q.mask]
}

// advance consumes cycle now: clears its bucket (whose slot becomes
// cycle now+H) and migrates any overflow events that just entered the
// window into their buckets, preserving schedule order.
func (q *eventQueue) advance(now int64) {
	idx := now & q.mask
	q.count -= len(q.buckets[idx])
	q.buckets[idx] = q.buckets[idx][:0]
	q.now = now
	if len(q.overflow) == 0 {
		return
	}
	h := int64(len(q.buckets))
	kept := q.overflow[:0]
	for _, ev := range q.overflow {
		if ev.at-now <= h {
			i := ev.at & q.mask
			q.buckets[i] = append(q.buckets[i], ev.event)
		} else {
			kept = append(kept, ev)
		}
	}
	q.overflow = kept
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return q.count }
