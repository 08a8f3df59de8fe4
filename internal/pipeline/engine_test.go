package pipeline

import (
	"math/rand"
	"sort"
	"testing"
)

// refEvent mirrors the ordering contract of the old container/heap
// implementation: events fire in (at, seq) order, seq being global
// schedule order.
type refEvent struct {
	at  int64
	seq int
}

// TestEventQueueMatchesHeapOrder drives the calendar queue with a
// randomized schedule — including events far past the horizon that take
// the overflow path — and checks that the drain order is exactly the
// (at, schedule-order) order the replaced heap produced. Each event
// gets its own DynInst so the drain can identify it by pointer.
func TestEventQueueMatchesHeapOrder(t *testing.T) {
	const horizon = 64
	rng := rand.New(rand.NewSource(7))

	for trial := 0; trial < 25; trial++ {
		var q eventQueue
		q.init(horizon, 1)

		var ref []refEvent
		ids := make(map[*DynInst]int)
		var drained []int
		now := int64(1)
		maxAt := int64(1)

		schedule := func(at int64) {
			if at <= now {
				at = now + 1
			}
			d := &DynInst{}
			ids[d] = len(ref)
			q.schedule(at, evComplete, d)
			ref = append(ref, refEvent{at: at, seq: len(ref)})
			if at > maxAt {
				maxAt = at
			}
		}

		for i := 0; i < 64; i++ {
			schedule(now + 1 + rng.Int63n(3*horizon))
		}
		for ; now <= maxAt; now++ {
			bucket := q.bucketFor(now)
			for i := 0; i < len(bucket); i++ {
				id := ids[bucket[i].inst]
				if at := ref[id].at; at != now {
					t.Fatalf("trial %d: cycle %d drained event scheduled for %d", trial, now, at)
				}
				drained = append(drained, id)
			}
			q.advance(now)
			if len(ref) < 200 && rng.Intn(2) == 0 {
				schedule(now + 1 + rng.Int63n(3*horizon))
			}
		}
		if q.len() != 0 {
			t.Fatalf("trial %d: %d events left after draining to maxAt", trial, q.len())
		}

		order := append([]refEvent(nil), ref...)
		sort.SliceStable(order, func(i, j int) bool {
			if order[i].at != order[j].at {
				return order[i].at < order[j].at
			}
			return order[i].seq < order[j].seq
		})
		if len(drained) != len(order) {
			t.Fatalf("trial %d: drained %d events, scheduled %d", trial, len(drained), len(order))
		}
		for i := range order {
			if drained[i] != order[i].seq {
				t.Fatalf("trial %d: drain position %d got event %d, heap order wants %d",
					trial, i, drained[i], order[i].seq)
			}
		}
	}
}

// TestEventQueueOverflowMigration pins the overflow path specifically:
// an event far beyond the horizon must drain at exactly its cycle, and
// an event scheduled for that same cycle after it entered the window
// must drain after it.
func TestEventQueueOverflowMigration(t *testing.T) {
	var q eventQueue
	q.init(64, 1) // ring size 64
	a, b := &DynInst{}, &DynInst{}

	far := int64(1 + 500) // beyond the 64-cycle window
	q.schedule(far, evComplete, a)
	if len(q.overflow) != 1 {
		t.Fatalf("far event not in overflow (len %d)", len(q.overflow))
	}

	scheduledLate := false
	for now := int64(1); now <= far; now++ {
		bucket := q.bucketFor(now)
		if now < far && len(bucket) != 0 {
			t.Fatalf("cycle %d: unexpected events", now)
		}
		if now == far {
			if len(bucket) != 2 {
				t.Fatalf("cycle %d: want 2 events, got %d", now, len(bucket))
			}
			if bucket[0].inst != a || bucket[1].inst != b {
				t.Fatal("overflow event did not drain before the later-scheduled event")
			}
		}
		q.advance(now)
		// Once far is inside the window, add a same-cycle event; it must
		// land behind the migrated overflow event.
		if !scheduledLate && far-now <= 64 {
			q.schedule(far, evComplete, b)
			scheduledLate = true
		}
	}
	if q.len() != 0 || len(q.overflow) != 0 {
		t.Fatalf("events left: len=%d overflow=%d", q.len(), len(q.overflow))
	}
}

// TestInstDequeSlidesWithoutGrowth checks FIFO behaviour and that a
// bounded-occupancy push/pop pattern — the ROB and front-end queue
// pattern that used to reallocate on every window slide — stops growing
// the backing array.
func TestInstDequeSlidesWithoutGrowth(t *testing.T) {
	var q instDeque
	insts := make([]DynInst, 8)

	for i := 0; i < 4; i++ {
		q.push(&insts[i])
	}
	capAfterFill := cap(q.buf)
	next := 4
	for i := 0; i < 10_000; i++ {
		want := &insts[(next-4)%8]
		if q.front() != want {
			t.Fatalf("slide %d: wrong front entry", i)
		}
		q.popFront()
		q.push(&insts[next%8])
		next++
	}
	if q.len() != 4 {
		t.Fatalf("len %d want 4", q.len())
	}
	if got := cap(q.buf); got > 2*capAfterFill+8 {
		t.Errorf("backing array grew: cap %d after fill, %d after 10k slides", capAfterFill, got)
	}

	// truncate drops the tail, keeping the front.
	front := q.front()
	q.truncate(2)
	if q.len() != 2 || q.front() != front {
		t.Fatalf("truncate broke the queue: len %d", q.len())
	}
}

// TestArenaRecyclesWithGenerationBump checks the arena contract events
// rely on: put invalidates by bumping gen and preserves fields until
// the next get, which hands back a zeroed instruction with the bumped
// generation.
func TestArenaRecyclesWithGenerationBump(t *testing.T) {
	var a instArena
	d := a.get()
	if d.gen != 0 {
		t.Fatalf("fresh inst gen %d", d.gen)
	}
	d.state = stSquashed
	d.Age = 99
	a.put(d)
	if d.gen != 1 {
		t.Fatalf("gen after put %d, want 1", d.gen)
	}
	if d.state != stSquashed || d.Age != 99 {
		t.Error("put must leave fields intact for same-cycle inspection")
	}

	// Drain the free list; the recycled pointer must come back zeroed
	// with its generation preserved.
	for i := 0; i < 2*arenaSlab; i++ {
		r := a.get()
		if r != d {
			continue
		}
		if r.gen != 1 {
			t.Errorf("recycled inst gen %d, want 1", r.gen)
		}
		if r.state != stFrontEnd || r.Age != 0 {
			t.Errorf("recycled inst not reset: state %d age %d", r.state, r.Age)
		}
		return
	}
	t.Error("recycled inst never handed back")
}
