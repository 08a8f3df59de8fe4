package exec

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// resolveCells expands a seeds × policies grid into resolved cells
// without running anything (tests substitute RunFunc).
func resolveCells(t *testing.T, policies []string, seeds []uint64) []*spec.Resolved {
	t.Helper()
	var out []*spec.Resolved
	for _, p := range policies {
		for _, seed := range seeds {
			rs := spec.RunSpec{
				Policy:       spec.Policy{Name: p},
				Workload:     spec.Workload{Name: "2-MIX"},
				Seed:         seed,
				WarmupCycles: 100, MeasureCycles: 200,
			}
			res, err := rs.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res)
		}
	}
	return out
}

// fakeResult builds a distinguishable result for a cell.
func fakeResult(res *spec.Resolved) *sim.Result {
	return &sim.Result{
		Workload: res.Spec.Workload.ID(),
		Policy:   res.Spec.Policy.ID(),
		Machine:  res.Spec.Machine.Name,
		Cycles:   int64(res.Spec.Seed),
	}
}

// countingRun returns a RunFunc recording invocations per fingerprint.
func countingRun(counts *sync.Map) RunFunc {
	return func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		n, _ := counts.LoadOrStore(res.Fingerprint, new(atomic.Int64))
		n.(*atomic.Int64).Add(1)
		return fakeResult(res), nil
	}
}

func TestExecuteAssemblesInOrderAndDedupes(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall"}, []uint64{1, 2, 3})
	// Append duplicates of every cell: they must share the originals'
	// simulations, not pay again.
	cells = append(cells, cells...)

	var counts sync.Map
	ex := New(Options{Workers: 4, Run: countingRun(&counts)})
	results := ex.Execute(context.Background(), cells, nil)

	if len(results) != len(cells) {
		t.Fatalf("got %d results for %d cells", len(results), len(cells))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("slot %d carries index %d", i, r.Index)
		}
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if r.Fingerprint != cells[i].Fingerprint {
			t.Errorf("slot %d: fingerprint mismatch", i)
		}
		if r.Result == nil || r.Result.Policy != cells[i].Spec.Policy.ID() {
			t.Errorf("slot %d: wrong result %+v", i, r.Result)
		}
	}
	runs := 0
	counts.Range(func(_, v any) bool {
		runs += int(v.(*atomic.Int64).Load())
		return true
	})
	if runs != 6 {
		t.Errorf("%d simulations for 6 unique fingerprints", runs)
	}
	cached := 0
	for _, r := range results {
		if r.Cached {
			cached++
		}
	}
	if cached != 6 {
		t.Errorf("%d cells cached, want the 6 duplicates", cached)
	}
}

func TestPerCellErrorIsolation(t *testing.T) {
	cells := resolveCells(t, []string{"icount"}, []uint64{1, 2, 3, 4})
	boom := errors.New("boom")
	bad := cells[1].Fingerprint
	ex := New(Options{Workers: 2, Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		if res.Fingerprint == bad {
			return nil, boom
		}
		return fakeResult(res), nil
	}})

	var events []Event
	results := ex.Execute(context.Background(), cells, func(ev Event) {
		events = append(events, ev)
	})

	if err := FirstError(results); !errors.Is(err, boom) {
		t.Fatalf("FirstError = %v, want boom", err)
	}
	for i, r := range results {
		if i == 1 {
			if !errors.Is(r.Err, boom) || r.Result != nil {
				t.Fatalf("failing cell: err=%v result=%v", r.Err, r.Result)
			}
			continue
		}
		if r.Err != nil || r.Result == nil {
			t.Fatalf("cell %d must survive its sibling's failure: err=%v", i, r.Err)
		}
	}
	failed := 0
	for _, ev := range events {
		if ev.State == CellFailed {
			failed++
			if ev.Index != 1 || !errors.Is(ev.Err, boom) {
				t.Errorf("failed event %+v", ev)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d failed events, want 1", failed)
	}
	// A failed cell must not be stored: re-executing retries it.
	if _, ok := ex.Store().Get(bad); ok {
		t.Error("failed cell landed in the store")
	}
}

func TestStoreResumeSkipsStoredCells(t *testing.T) {
	cells := resolveCells(t, []string{"icount"}, []uint64{1, 2, 3})
	store := NewMemStore()
	pre := fakeResult(cells[0])
	store.Put(cells[0].Fingerprint, pre)

	var counts sync.Map
	ex := New(Options{Workers: 2, Store: store, Run: countingRun(&counts)})
	results := ex.Execute(context.Background(), cells, nil)

	if !results[0].Cached || results[0].Result != pre {
		t.Fatalf("stored cell not served from store: %+v", results[0])
	}
	if _, ok := counts.Load(cells[0].Fingerprint); ok {
		t.Fatal("stored cell was re-simulated")
	}
	if results[1].Cached || results[2].Cached {
		t.Fatal("fresh cells reported cached")
	}
	// Second pass over the warm store: everything cached, nothing runs.
	counts = sync.Map{}
	again := New(Options{Workers: 2, Store: store, Run: countingRun(&counts)})
	for i, r := range again.Execute(context.Background(), cells, nil) {
		if !r.Cached || r.Err != nil {
			t.Fatalf("resume cell %d not served from store: %+v", i, r)
		}
	}
	if n := 0; func() bool { counts.Range(func(_, _ any) bool { n++; return true }); return n > 0 }() {
		t.Fatal("resume re-simulated cells")
	}
}

func TestCancellationMarksCellsCanceled(t *testing.T) {
	cells := resolveCells(t, []string{"icount"}, []uint64{1, 2, 3, 4, 5, 6})
	ctx, cancel := context.WithCancel(context.Background())
	firstRunning := make(chan struct{})
	var once sync.Once
	ex := New(Options{Workers: 1, Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		once.Do(func() { close(firstRunning) })
		<-ctx.Done() // cooperative: observe cancellation like sim.RunContext does
		return nil, ctx.Err()
	}})

	go func() {
		<-firstRunning
		cancel()
	}()
	results := ex.Execute(ctx, cells, nil)
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("cell %d err = %v, want context.Canceled", i, r.Err)
		}
	}
}

func TestConcurrentExecutesShareOneFlight(t *testing.T) {
	cells := resolveCells(t, []string{"icount"}, []uint64{7})
	var runs atomic.Int64
	release := make(chan struct{})
	ex := New(Options{Workers: 4, Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		runs.Add(1)
		<-release
		return fakeResult(res), nil
	}})

	var wg sync.WaitGroup
	out := make([][]CellResult, 2)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = ex.Execute(context.Background(), cells, nil)
		}(i)
	}
	// Let both Execute calls reach the flight, then release the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("%d simulations across two concurrent sweeps, want 1", n)
	}
	if out[0][0].Err != nil || out[1][0].Err != nil {
		t.Fatalf("errs: %v %v", out[0][0].Err, out[1][0].Err)
	}
	if !out[0][0].Cached && !out[1][0].Cached {
		t.Error("neither sweep joined the other's flight")
	}
}

// TestLeaderFailureRetry: a canceled leader must not poison the cells
// waiting on its flight — a waiter whose own context is live retries as
// leader and pays for the simulation itself.
func TestLeaderFailureRetry(t *testing.T) {
	cells := resolveCells(t, []string{"icount"}, []uint64{5})
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})
	var runs atomic.Int64
	ex := New(Options{Workers: 2, Registry: obs.NewRegistry(), Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		if runs.Add(1) == 1 {
			close(leaderIn)
			<-leaderGo
			return nil, ctx.Err()
		}
		return fakeResult(res), nil
	}})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	var leader, waiter []CellResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		leader = ex.Execute(leaderCtx, cells, nil)
	}()
	<-leaderIn // the leader is mid-run and owns the flight
	cancelLeader()
	go func() {
		defer wg.Done()
		waiter = ex.Execute(context.Background(), cells, nil)
	}()
	for ex.met.dedup.Value() == 0 { // the waiter has joined the flight
		time.Sleep(time.Millisecond)
	}
	close(leaderGo)
	wg.Wait()

	if !errors.Is(leader[0].Err, context.Canceled) {
		t.Fatalf("canceled leader: err = %v, want context.Canceled", leader[0].Err)
	}
	if waiter[0].Err != nil || waiter[0].Result == nil {
		t.Fatalf("waiter inherited the leader's failure: %+v", waiter[0])
	}
	if waiter[0].Cached {
		t.Fatal("waiter reported cached; it had to retry as leader")
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("%d runs, want 2 (failed leader + retrying waiter)", n)
	}
}

func TestEventsCountToTotal(t *testing.T) {
	cells := resolveCells(t, []string{"icount", "stall"}, []uint64{1, 2})
	var counts sync.Map
	ex := New(Options{Workers: 3, Run: countingRun(&counts)})

	var events []Event
	ex.Execute(context.Background(), cells, func(ev Event) {
		events = append(events, ev)
	})

	terminal := 0
	lastCompleted := 0
	for _, ev := range events {
		if ev.Total != len(cells) {
			t.Fatalf("event total %d, want %d", ev.Total, len(cells))
		}
		if ev.Terminal() {
			terminal++
			if ev.Completed <= lastCompleted {
				t.Fatalf("completed counter not monotonic: %+v", ev)
			}
			lastCompleted = ev.Completed
		}
	}
	if terminal != len(cells) || lastCompleted != len(cells) {
		t.Fatalf("%d terminal events, final completed %d, want %d", terminal, lastCompleted, len(cells))
	}
}

func TestDirStoreRoundTripAndCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{Workload: "2-MIX", Policy: "icount", Machine: "baseline", Cycles: 123, Throughput: 1.5}
	store.Put("f01", res)
	got, ok := store.Get("f01")
	if !ok || got.Cycles != 123 || got.Throughput != 1.5 {
		t.Fatalf("round trip: ok=%v got=%+v", ok, got)
	}
	if _, ok := store.Get("nonesuch"); ok {
		t.Fatal("missing entry reported present")
	}
	// A truncated entry (as if the process died mid-write without the
	// rename discipline) is a miss, not an error.
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte(`{"Cycles":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("bad"); ok {
		t.Fatal("corrupt entry reported present")
	}
	// No temp litter after Puts.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if n := e.Name(); n != "f01.json" && n != "bad.json" {
			t.Fatalf("unexpected file %s", n)
		}
	}
}

func TestDirStoreResumesAcrossExecutors(t *testing.T) {
	dir := t.TempDir()
	cells := resolveCells(t, []string{"icount"}, []uint64{1, 2, 3, 4})

	// First "process": killed after two cells — simulate by only
	// executing a prefix.
	store1, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var counts1 sync.Map
	New(Options{Workers: 1, Store: store1, Run: countingRun(&counts1)}).
		Execute(context.Background(), cells[:2], nil)

	// Second "process" over the same directory: the stored prefix is
	// skipped, only the remainder simulates.
	store2, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var counts2 sync.Map
	results := New(Options{Workers: 1, Store: store2, Run: countingRun(&counts2)}).
		Execute(context.Background(), cells, nil)

	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		if wantCached := i < 2; r.Cached != wantCached {
			t.Fatalf("cell %d cached=%v, want %v", i, r.Cached, wantCached)
		}
	}
	reruns := 0
	counts2.Range(func(_, _ any) bool { reruns++; return true })
	if reruns != 2 {
		t.Fatalf("resume simulated %d cells, want 2", reruns)
	}
}

func TestExecuteRunsRealSimulator(t *testing.T) {
	// Default RunFunc end to end: a tiny two-cell grid through the real
	// engine, cross-checked against direct sim.Run.
	rs := spec.RunSpec{
		Policy:       spec.Policy{Name: "icount"},
		Workload:     spec.Workload{Name: "2-MIX"},
		WarmupCycles: 1000, MeasureCycles: 3000,
	}
	res, err := rs.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := New(Options{Workers: 2})
	results := ex.Execute(context.Background(), []*spec.Resolved{res, res}, nil)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Run(res.Options)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Result.Throughput != direct.Throughput {
			t.Fatalf("cell %d: executor %.6f vs direct %.6f", i, r.Result.Throughput, direct.Throughput)
		}
	}
	if fmt.Sprintf("%d", ex.Workers()) != "2" {
		t.Fatalf("workers = %d", ex.Workers())
	}
}
