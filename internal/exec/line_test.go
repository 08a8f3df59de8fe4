package exec

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// submit executes one cell in the background.
func submit(ctx context.Context, ex *Executor, c *spec.Resolved, onEvent func(Event)) <-chan CellResult {
	out := make(chan CellResult, 1)
	go func() { out <- ex.Execute(ctx, []*spec.Resolved{c}, onEvent)[0] }()
	return out
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waiting counts the cells waiting in the line.
func (e *Executor) waiting() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.line)
}

// result waits for a submitted cell.
func result(t *testing.T, ch <-chan CellResult) CellResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("cell never finished")
		return CellResult{}
	}
}

// blockingRun runs cells locally, recording their start order; each
// run holds its slot until its fingerprint's gate is closed.
type blockingRun struct {
	mu    sync.Mutex
	order []string
	gates map[string]chan struct{}
}

func newBlockingRun(cells ...*spec.Resolved) *blockingRun {
	b := &blockingRun{gates: map[string]chan struct{}{}}
	for _, c := range cells {
		b.gates[c.Fingerprint] = make(chan struct{})
	}
	return b
}

func (b *blockingRun) run(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
	b.mu.Lock()
	b.order = append(b.order, res.Fingerprint)
	gate := b.gates[res.Fingerprint]
	b.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return fakeResult(res), nil
}

func (b *blockingRun) ran() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// TestWaitLineFIFOAcrossSlots: cells that find every slot busy wait in
// arrival order, and whichever slot frees takes the head of the line.
func TestWaitLineFIFOAcrossSlots(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall", "dwarn", "flush", "dg"}, []uint64{1})
	br := newBlockingRun(cells...)
	ex := New(Options{Workers: 2, Registry: obs.NewRegistry(), Run: br.run})
	ctx := context.Background()

	var results []<-chan CellResult
	for i, c := range cells {
		results = append(results, submit(ctx, ex, c, nil))
		if i < 2 {
			waitFor(t, "a cell on each slot", func() bool { return len(br.ran()) == i+1 })
		} else {
			waitFor(t, "the line to grow", func() bool { return ex.waiting() == i-1 })
		}
	}
	// Free the second slot, then the first, then the second again: each
	// time the head of the line starts.
	for i, free := range []int{1, 0, 2} {
		close(br.gates[cells[free].Fingerprint])
		waitFor(t, "a freed slot to take the head", func() bool { return len(br.ran()) == 3+i })
	}
	close(br.gates[cells[3].Fingerprint])
	close(br.gates[cells[4].Fingerprint])
	for i, ch := range results {
		if r := result(t, ch); r.Err != nil || r.Result.Policy != cells[i].Spec.Policy.ID() {
			t.Errorf("cell %d: %+v", i, r)
		}
	}
	for i, fp := range br.ran() {
		if fp != cells[i].Fingerprint {
			t.Fatalf("start %d ran %s, want cell %d (FIFO)", i, fp[:12], i)
		}
	}
	if n := ex.waiting(); n != 0 {
		t.Errorf("line still holds %d cells", n)
	}
}

// TestWaitLineStartsOnce: a cell fires no started event while it waits
// in the line and exactly one when a freed slot runs it.
func TestWaitLineStartsOnce(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall"}, []uint64{2})
	a, b := cells[0], cells[1]
	br := newBlockingRun(a)
	ex := New(Options{Workers: 1, Registry: obs.NewRegistry(), Run: br.run})
	ctx := context.Background()

	ra := submit(ctx, ex, a, nil)
	waitFor(t, "A on the slot", func() bool { return len(br.ran()) == 1 })
	var started atomic.Int64
	rb := submit(ctx, ex, b, func(ev Event) {
		if ev.State == CellStarted {
			started.Add(1)
		}
	})
	waitFor(t, "B in the line", func() bool { return ex.waiting() == 1 })
	if n := started.Load(); n != 0 {
		t.Fatalf("a waiting cell fired %d started events", n)
	}
	close(br.gates[a.Fingerprint])
	if r := result(t, rb); r.Err != nil || r.Cached {
		t.Fatalf("waiting cell: %+v", r)
	}
	result(t, ra)
	if got := br.ran(); len(got) != 2 || got[1] != b.Fingerprint {
		t.Fatal("the freed slot did not run the waiting cell")
	}
	if n := started.Load(); n != 1 {
		t.Errorf("started fired %d times, want 1", n)
	}
}

// TestWaitLineCancel: a cell canceled while it waits leaves the line at
// once without starting, and the slot it waited for goes to the next
// cell, not to it.
func TestWaitLineCancel(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall", "dwarn"}, []uint64{4})
	a, c, d := cells[0], cells[1], cells[2]
	br := newBlockingRun(a)
	ex := New(Options{Workers: 1, Registry: obs.NewRegistry(), Run: br.run})

	ra := submit(context.Background(), ex, a, nil)
	waitFor(t, "A on the slot", func() bool { return len(br.ran()) == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	rc := submit(ctx, ex, c, func(ev Event) {
		if ev.State == CellStarted {
			started.Add(1)
		}
	})
	waitFor(t, "the cell in the line", func() bool { return ex.waiting() == 1 })
	cancel()
	if r := result(t, rc); !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", r.Err)
	}
	if n := ex.waiting(); n != 0 || started.Load() != 0 {
		t.Fatalf("canceled cell: %d cells still in the line, %d started events", n, started.Load())
	}
	close(br.gates[a.Fingerprint])
	result(t, ra)
	if r := result(t, submit(context.Background(), ex, d, nil)); r.Err != nil {
		t.Fatalf("next cell: %v", r.Err)
	}
	if got := br.ran(); len(got) != 2 || got[1] != d.Fingerprint {
		t.Fatal("the freed slot did not go to the next cell")
	}
}

// TestWaitLineSiblingHoldsUpNoOne: a checkpoint group's sibling that
// may not start yet (its leader is still calibrating) keeps its place
// in the line without holding up an unrelated cell behind it, which
// takes the free slot at once; the sibling starts, and forks, when the
// leader publishes.
func TestWaitLineSiblingHoldsUpNoOne(t *testing.T) {
	group := resolveCells(t, []string{"icount", "stall"}, []uint64{1})
	other := resolveCells(t, []string{"icount"}, []uint64{2})[0]
	lead, sib := group[0], group[1]
	publish := make(chan struct{})
	var mu sync.Mutex
	var order []string
	var forks atomic.Int64
	ex := New(Options{Workers: 2, Checkpoints: ckpt.NewMemStore(0), Registry: obs.NewRegistry(),
		// The group's leader calibrates until publish is closed; every
		// other cell that misses the store publishes at once.
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			mu.Lock()
			order = append(order, res.Fingerprint)
			mu.Unlock()
			cs := res.Options.Checkpoints
			if _, ok := cs.Get(res.CheckpointKey); ok {
				forks.Add(1)
				return fakeResult(res), nil
			}
			if res.Fingerprint == lead.Fingerprint {
				<-publish
			}
			cs.Put(res.CheckpointKey, &ckpt.Image{Key: res.CheckpointKey})
			return fakeResult(res), nil
		}})
	ran := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}
	ctx := context.Background()

	rl := submit(ctx, ex, lead, nil)
	waitFor(t, "the leader on a slot", func() bool { return len(ran()) == 1 })
	rs := submit(ctx, ex, sib, nil)
	waitFor(t, "the sibling in the line", func() bool { return ex.waiting() == 1 })
	// The unrelated cell is behind the sibling in the line, and a slot
	// is free: it must run to the end while the leader still calibrates.
	if r := result(t, submit(ctx, ex, other, nil)); r.Err != nil || r.Cached {
		t.Fatalf("unrelated cell: %+v", r)
	}
	if n := ex.waiting(); n != 1 {
		t.Fatalf("%d cells in the line while the leader calibrates, want the sibling", n)
	}
	close(publish)
	for _, ch := range []<-chan CellResult{rl, rs} {
		if r := result(t, ch); r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	want := []string{lead.Fingerprint, other.Fingerprint, sib.Fingerprint}
	if got := ran(); !slices.Equal(got, want) {
		t.Errorf("start order %v, want leader, unrelated cell, sibling", got)
	}
	if forks.Load() != 1 {
		t.Errorf("forks = %d, want 1 (the sibling)", forks.Load())
	}
}
