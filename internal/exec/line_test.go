package exec

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/trace"
)

// traceCell is a trace-workload cell: its payload lives only in this
// process, so only a local slot may run it.
func traceCell() *spec.Resolved {
	return &spec.Resolved{
		Options:     sim.Options{Trace: &trace.Trace{}},
		Fingerprint: "feedfacefeedface",
	}
}

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

// takeOne takes exactly one cell, failing the test if none arrives.
func takeOne(t *testing.T, ex *Executor) *spec.Resolved {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got, err := ex.Take(ctx, 1)
	if err != nil || len(got) != 1 {
		t.Fatalf("take: %d cells, err %v", len(got), err)
	}
	return got[0].Cell
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
	if res.Options.Trace != nil {
		return &sim.Result{Cycles: 7}, nil
	}
	return fakeResult(res), nil
}

func (b *blockingRun) ran() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// TestWaitLineFIFOAcrossSlotsAndTaker: local slots and a remote taker
// take from one line, oldest cell first, and a slot that frees hands
// itself to the head of the line.
func TestWaitLineFIFOAcrossSlotsAndTaker(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall", "dwarn", "flush"}, []uint64{1})
	a, b, c, d := cells[0], cells[1], cells[2], cells[3]
	br := newBlockingRun(a, c)
	ex := New(Options{Workers: 1, Registry: obs.NewRegistry(), Run: br.run})
	ctx := context.Background()

	ra := submit(ctx, ex, a, nil)
	waitFor(t, "A on the local slot", func() bool { return len(br.ran()) == 1 })
	var waiting []<-chan CellResult
	for i, x := range []*spec.Resolved{b, c, d} {
		waiting = append(waiting, submit(ctx, ex, x, nil))
		waitFor(t, "the line to grow", func() bool { return ex.Waiting() == i+1 })
	}
	rb, rc, rd := waiting[0], waiting[1], waiting[2]

	if got := takeOne(t, ex); got.Fingerprint != b.Fingerprint {
		t.Fatalf("taker got %s, want the head of the line (B)", got.Fingerprint[:12])
	}
	close(br.gates[a.Fingerprint])
	waitFor(t, "the freed slot to take C", func() bool { return len(br.ran()) == 2 })
	if got := br.ran()[1]; got != c.Fingerprint {
		t.Fatalf("freed slot took %s, want C", got[:12])
	}
	if got := takeOne(t, ex); got.Fingerprint != d.Fingerprint {
		t.Fatalf("taker got %s, want D", got.Fingerprint[:12])
	}
	for _, x := range []*spec.Resolved{b, d} {
		if !ex.Resolve(x.Fingerprint, fakeResult(x), nil) {
			t.Fatalf("resolve %s reported stale", x.Fingerprint[:12])
		}
	}
	close(br.gates[c.Fingerprint])
	for i, ch := range []<-chan CellResult{ra, rb, rc, rd} {
		r := result(t, ch)
		if r.Err != nil || r.Result.Policy != cells[i].Spec.Policy.ID() {
			t.Errorf("cell %d: %+v", i, r)
		}
	}
	if got := br.ran(); len(got) != 2 {
		t.Errorf("local slot ran %d cells, want 2 (A and C)", len(got))
	}
	if ex.Waiting() != 0 {
		t.Errorf("line still holds %d cells", ex.Waiting())
	}
}

// TestWaitLineRequeueThenRun: a requeued cell goes back in the line, a
// taker may take it again, and a slot that frees runs it locally — with
// one started event throughout.
func TestWaitLineRequeueThenRun(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall"}, []uint64{2})
	a, b := cells[0], cells[1]
	br := newBlockingRun(a)
	ex := New(Options{Workers: 1, Registry: obs.NewRegistry(), Run: br.run})
	ctx := context.Background()

	ra := submit(ctx, ex, a, nil)
	waitFor(t, "A on the local slot", func() bool { return len(br.ran()) == 1 })
	var started atomic.Int64
	rb := submit(ctx, ex, b, func(ev Event) {
		if ev.State == CellStarted {
			started.Add(1)
		}
	})
	waitFor(t, "B in the line", func() bool { return ex.Waiting() == 1 })

	takeOne(t, ex)
	if !ex.Requeue(b.Fingerprint) {
		t.Fatal("requeue of a taken cell refused")
	}
	if ex.Requeue(b.Fingerprint) {
		t.Fatal("requeue of a waiting cell accepted")
	}
	if got := takeOne(t, ex); got.Fingerprint != b.Fingerprint {
		t.Fatal("requeued cell not taken again")
	}
	if !ex.Requeue(b.Fingerprint) {
		t.Fatal("second requeue refused")
	}
	close(br.gates[a.Fingerprint])
	if r := result(t, rb); r.Err != nil || r.Cached {
		t.Fatalf("requeued cell: %+v", r)
	}
	result(t, ra)
	if got := br.ran(); len(got) != 2 || got[1] != b.Fingerprint {
		t.Fatal("the freed slot did not run the requeued cell")
	}
	if n := started.Load(); n != 1 {
		t.Errorf("started fired %d times, want 1", n)
	}
}

// TestWaitLineLateCompletionStale: the first resolution wins; a second
// one, and any after the cell finished, reports stale.
func TestWaitLineLateCompletionStale(t *testing.T) {
	c := resolveCells(t, []string{"icount"}, []uint64{3})[0]
	ex := New(Options{Workers: -1, Registry: obs.NewRegistry()})
	rc := submit(context.Background(), ex, c, nil)

	takeOne(t, ex)
	if !ex.Wanted(c.Fingerprint) {
		t.Fatal("taken cell not wanted")
	}
	if !ex.Resolve(c.Fingerprint, &sim.Result{Cycles: 1}, nil) {
		t.Fatal("first resolution reported stale")
	}
	if ex.Resolve(c.Fingerprint, &sim.Result{Cycles: 2}, nil) {
		t.Fatal("second resolution accepted")
	}
	if r := result(t, rc); r.Err != nil || r.Result.Cycles != 1 {
		t.Fatalf("result %+v, want the first resolution", r)
	}
	if ex.Wanted(c.Fingerprint) || ex.Resolve(c.Fingerprint, &sim.Result{}, nil) || ex.Requeue(c.Fingerprint) {
		t.Fatal("a finished cell is still addressable")
	}
}

// TestWaitLineCancel: a canceled cell leaves the line at once, whether
// it was waiting or taken, and a taker's late completion is stale.
func TestWaitLineCancel(t *testing.T) {
	c := resolveCells(t, []string{"icount"}, []uint64{4})[0]
	for _, taken := range []bool{false, true} {
		ex := New(Options{Workers: -1, Registry: obs.NewRegistry()})
		ctx, cancel := context.WithCancel(context.Background())
		rc := submit(ctx, ex, c, nil)
		waitFor(t, "the cell in the line", func() bool { return ex.Waiting() == 1 })
		if taken {
			takeOne(t, ex)
		}
		cancel()
		if r := result(t, rc); !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("taken=%v: err %v, want context.Canceled", taken, r.Err)
		}
		if ex.Waiting() != 0 || ex.Wanted(c.Fingerprint) || ex.Resolve(c.Fingerprint, &sim.Result{}, nil) {
			t.Fatalf("taken=%v: canceled cell still in the line", taken)
		}
		short, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
		if got, _ := ex.Take(short, 1); len(got) != 0 {
			t.Fatalf("taken=%v: a canceled cell was handed out", taken)
		}
		stop()
	}
}

// TestWaitLineTraceCellsNeverTaken: a trace cell waits for a local
// slot; a taker long-polling the line never receives it.
func TestWaitLineTraceCellsNeverTaken(t *testing.T) {
	a := resolveCells(t, []string{"icount"}, []uint64{5})[0]
	tc := traceCell()
	br := newBlockingRun(a)
	ex := New(Options{Workers: 1, Registry: obs.NewRegistry(), Run: br.run})
	ctx := context.Background()

	ra := submit(ctx, ex, a, nil)
	waitFor(t, "A on the local slot", func() bool { return len(br.ran()) == 1 })
	rt := submit(ctx, ex, tc, nil)
	waitFor(t, "the trace cell in the line", func() bool { return ex.Waiting() == 1 })
	short, stop := context.WithTimeout(ctx, 50*time.Millisecond)
	defer stop()
	if got, err := ex.Take(short, 4); len(got) != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("taker got %d cells (err %v); trace cells must stay local", len(got), err)
	}
	close(br.gates[a.Fingerprint])
	if r := result(t, rt); r.Err != nil {
		t.Fatalf("trace cell: %v", r.Err)
	}
	result(t, ra)
	if got := br.ran(); len(got) != 2 || got[1] != tc.Fingerprint {
		t.Fatal("the local slot did not run the trace cell")
	}
}

// TestWaitLineNoLocalSlotsFailsTraceCell: with no local slots nothing
// could ever run a trace cell, so it fails at once instead of hanging.
func TestWaitLineNoLocalSlotsFailsTraceCell(t *testing.T) {
	ex := New(Options{Workers: -1, Registry: obs.NewRegistry()})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	r := ex.Execute(ctx, []*spec.Resolved{traceCell()}, nil)[0]
	if !errors.Is(r.Err, ErrNoLocalSlots) {
		t.Fatalf("err = %v, want ErrNoLocalSlots", r.Err)
	}
	if ex.Workers() != 0 {
		t.Errorf("workers = %d, want 0", ex.Workers())
	}
}

// TestWaitLineTakerSharesSingleFlight: with only a remote taker, the
// executor still owns everything but the run — duplicate cells are
// taken once, results are stored, events and input order hold, and a
// taker's failure lands in its cell.
func TestWaitLineTakerSharesSingleFlight(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall"}, []uint64{1, 2})
	cells = append(cells, cells...) // duplicates must not be taken twice

	// taker resolves every cell it takes with outcome, counting takes.
	taker := func(ex *Executor, outcome func(*spec.Resolved) (*sim.Result, error)) (*sync.Map, context.CancelFunc) {
		var byFP sync.Map
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			for {
				got, err := ex.Take(ctx, 4)
				if err != nil {
					return
				}
				for _, tk := range got {
					n, _ := byFP.LoadOrStore(tk.Cell.Fingerprint, new(atomic.Int64))
					n.(*atomic.Int64).Add(1)
					res, err := outcome(tk.Cell)
					ex.Resolve(tk.Cell.Fingerprint, res, err)
				}
			}
		}()
		return &byFP, cancel
	}

	store := NewMemStore()
	ex := New(Options{Workers: -1, Store: store, Registry: obs.NewRegistry()})
	byFP, stop := taker(ex, func(c *spec.Resolved) (*sim.Result, error) { return fakeResult(c), nil })
	defer stop()

	var evMu sync.Mutex
	var events []Event
	results := ex.Execute(context.Background(), cells, func(ev Event) {
		evMu.Lock()
		events = append(events, ev)
		evMu.Unlock()
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Index != i || r.Fingerprint != cells[i].Fingerprint {
			t.Fatalf("slot %d out of order: %+v", i, r)
		}
	}
	uniq := len(cells) / 2
	distinct := 0
	byFP.Range(func(k, v any) bool {
		distinct++
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Errorf("fingerprint %s taken %d times", k.(string)[:12], n)
		}
		return true
	})
	if distinct != uniq {
		t.Errorf("took %d distinct fingerprints, want %d", distinct, uniq)
	}
	if store.Len() != uniq {
		t.Errorf("store holds %d results, want %d", store.Len(), uniq)
	}
	var started, done, cached int
	for _, ev := range events {
		switch ev.State {
		case CellStarted:
			started++
		case CellDone:
			done++
		case CellCached:
			cached++
		}
	}
	if started != uniq || done != uniq || cached != uniq {
		t.Errorf("events: %d started, %d done, %d cached; want %d each", started, done, cached, uniq)
	}

	// A taker's failure is recorded in its cell, not fatal to others.
	boom := errors.New("boom")
	ex2 := New(Options{Workers: -1, Registry: obs.NewRegistry()})
	_, stop2 := taker(ex2, func(*spec.Resolved) (*sim.Result, error) { return nil, boom })
	defer stop2()
	if rs := ex2.Execute(context.Background(), cells[:1], nil); !errors.Is(rs[0].Err, boom) {
		t.Fatalf("taker failure not surfaced: %+v", rs[0])
	}
}
