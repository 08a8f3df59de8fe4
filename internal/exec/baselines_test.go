package exec

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/stats"
)

// baselinesCell resolves a short baselines cell.
func baselinesCell(t *testing.T, policy, wl string) *spec.Resolved {
	t.Helper()
	rs := spec.RunSpec{
		Policy:       spec.Policy{Name: policy},
		Workload:     spec.Workload{Name: wl},
		Seed:         7,
		WarmupCycles: 100, MeasureCycles: 200,
		Baselines: true,
	}
	res, err := rs.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// directSummary runs a cell's SoloBaseline cells straight through run
// and summarizes the cell's result against them.
func directSummary(t *testing.T, run RunFunc, c *spec.Resolved, res *sim.Result) *stats.Summary {
	t.Helper()
	solo := make([]float64, len(res.Threads))
	for i, th := range res.Threads {
		rs := spec.SoloBaseline(c.Spec, th.Benchmark)
		sc, err := rs.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = sr.Threads[0].IPC
	}
	sum, err := stats.Summarize(res.IPCs(), solo)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestBaselinesSummaryMatchesDirectSolos: a baselines cell's Summary,
// on its CellResult and its terminal event, is stats.Summarize over
// directly run SoloBaseline cells; a cell without baselines has none.
func TestBaselinesSummaryMatchesDirectSolos(t *testing.T) {
	cells := []*spec.Resolved{
		baselinesCell(t, "dwarn", "2-MIX"),
		baselinesCell(t, "icount", "4-MIX"),
		resolveCells(t, []string{"stall"}, []uint64{7})[0],
	}
	var counts sync.Map
	ex := New(Options{Workers: 2, Registry: obs.NewRegistry(), Run: countingRun(&counts)})
	var mu sync.Mutex
	evSummary := map[int]*stats.Summary{}
	results := ex.Execute(context.Background(), cells, func(ev Event) {
		if ev.Terminal() {
			mu.Lock()
			evSummary[ev.Index] = ev.Summary
			mu.Unlock()
		}
	})
	direct := countingRun(new(sync.Map))
	for i, r := range results[:2] {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
		want := directSummary(t, direct, cells[i], r.Result)
		if !reflect.DeepEqual(r.Summary, want) {
			t.Errorf("cell %d summary %+v, want %+v", i, r.Summary, want)
		}
		if evSummary[i] != r.Summary {
			t.Errorf("cell %d: event summary %p, result summary %p", i, evSummary[i], r.Summary)
		}
	}
	if results[2].Summary != nil || evSummary[2] != nil {
		t.Error("a cell without baselines carries a summary")
	}
}

// TestBaselinesSoloOncePerBatch: cells and duplicate inputs sharing a
// benchmark share one solo run, and every solo counts as a terminal
// cell without emitting an event.
func TestBaselinesSoloOncePerBatch(t *testing.T) {
	mix2, mix4 := baselinesCell(t, "dwarn", "2-MIX"), baselinesCell(t, "stall", "4-MIX")
	cells := []*spec.Resolved{mix2, mix4, baselinesCell(t, "icount", "2-MIX"), mix2, mix4}
	var counts sync.Map
	reg := obs.NewRegistry()
	ex := New(Options{Workers: 3, Registry: reg, Run: countingRun(&counts)})
	var events atomic.Int64
	results := ex.Execute(context.Background(), cells, func(ev Event) {
		if ev.Terminal() {
			events.Add(1)
		}
	})
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if n := events.Load(); n != int64(len(cells)) {
		t.Errorf("%d terminal events for %d cells: solos must not emit", n, len(cells))
	}
	// 2-MIX is gzip+twolf and 4-MIX adds bzip2 and mcf.
	solos := map[string]bool{}
	for _, b := range mix4.Options.Workload.Benchmarks {
		rs := spec.SoloBaseline(mix4.Spec, b)
		sc, err := rs.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		solos[sc.Fingerprint] = true
	}
	if len(solos) != 4 {
		t.Fatalf("%d distinct solos, want 4", len(solos))
	}
	counts.Range(func(fp, n any) bool {
		if got := n.(*atomic.Int64).Load(); got != 1 {
			t.Errorf("%.12s simulated %d times", fp, got)
		}
		delete(solos, fp.(string))
		return true
	})
	if len(solos) != 0 {
		t.Errorf("%d solos never ran", len(solos))
	}
	terminal := uint64(0)
	for _, state := range []string{CellDone, CellCached} {
		terminal += reg.Counter("dwarn_exec_cells_total", "", obs.L("state", state)).Value()
	}
	if want := uint64(len(cells) + 4); terminal != want {
		t.Errorf("dwarn_exec_cells_total = %d, want %d (cells + solos)", terminal, want)
	}
}

// TestBaselinesSoloFailureFailsDependents: a failing solo fails just
// the cells that divide by it, with the wrapped cause; a canceled solo
// leaves them canceled.
func TestBaselinesSoloFailureFailsDependents(t *testing.T) {
	injected := errors.New("injected solo failure")
	mix2 := baselinesCell(t, "dwarn", "2-MIX") // gzip, twolf
	ilp2 := baselinesCell(t, "dwarn", "2-ILP") // gzip, bzip2
	plain := resolveCells(t, []string{"icount"}, []uint64{7})[0]

	t.Run("failed", func(t *testing.T) {
		ex := New(Options{Workers: 2, Registry: obs.NewRegistry(), Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			if res.Spec.Workload.Solo == "twolf" {
				return nil, injected
			}
			return fakeResult(res), nil
		}})
		states := map[int]string{}
		var mu sync.Mutex
		results := ex.Execute(context.Background(), []*spec.Resolved{mix2, ilp2, plain}, func(ev Event) {
			mu.Lock()
			states[ev.Index] = ev.State
			mu.Unlock()
		})
		r := results[0]
		if !errors.Is(r.Err, injected) || !strings.HasPrefix(r.Err.Error(), "solo baseline for twolf: ") {
			t.Fatalf("dependent cell error %v", r.Err)
		}
		if r.Result != nil || r.Summary != nil || states[0] != CellFailed {
			t.Errorf("dependent cell: result %v summary %v state %s", r.Result, r.Summary, states[0])
		}
		for i, r := range results[1:] {
			if r.Err != nil || r.Result == nil {
				t.Errorf("independent cell %d: %v", i+1, r.Err)
			}
		}
		if results[1].Summary == nil {
			t.Error("2-ILP lost its summary")
		}
	})

	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		// Cancel once the twolf solo is running and every other run
		// (both cells and the gzip solo) has returned.
		soloStarted := make(chan struct{})
		var othersRan sync.WaitGroup
		othersRan.Add(3)
		ex := New(Options{Workers: 4, Registry: obs.NewRegistry(), Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			if res.Spec.Workload.Solo == "twolf" {
				close(soloStarted)
				<-ctx.Done()
				return nil, ctx.Err()
			}
			defer othersRan.Done()
			return fakeResult(res), nil
		}})
		go func() {
			<-soloStarted
			othersRan.Wait()
			cancel()
		}()
		var mu sync.Mutex
		states := map[int]string{}
		results := ex.Execute(ctx, []*spec.Resolved{mix2, plain}, func(ev Event) {
			mu.Lock()
			states[ev.Index] = ev.State
			mu.Unlock()
		})
		r := results[0]
		if !errors.Is(r.Err, context.Canceled) || !strings.HasPrefix(r.Err.Error(), "solo baseline for twolf: ") {
			t.Fatalf("dependent cell error %v", r.Err)
		}
		if states[0] != CellCanceled {
			t.Errorf("dependent cell state %s, want canceled", states[0])
		}
		if results[1].Err != nil || states[1] != CellDone {
			t.Errorf("independent cell: %v, state %s", results[1].Err, states[1])
		}
	})
}

// TestLookupNeedsCellAndSolos: Lookup runs nothing and fills a slot
// only when the cell and every solo it needs are stored.
func TestLookupNeedsCellAndSolos(t *testing.T) {
	mix2 := baselinesCell(t, "dwarn", "2-MIX")
	plain := resolveCells(t, []string{"icount"}, []uint64{7})[0]
	absent := resolveCells(t, []string{"stall"}, []uint64{7})[0]
	var counts sync.Map
	st := NewMemStore()
	ex := New(Options{Workers: 2, Store: st, Registry: obs.NewRegistry(), Run: countingRun(&counts)})
	cells := []*spec.Resolved{mix2, plain, absent}

	// The baselines cell is stored, its solos are not.
	st.Put(mix2.Fingerprint, fakeResult(mix2))
	st.Put(plain.Fingerprint, fakeResult(plain))
	got := ex.Lookup(cells)
	if got[0].Result != nil || got[2].Result != nil {
		t.Fatalf("slots filled without their solos or cell: %+v", got)
	}
	if got[1].Result == nil || !got[1].Cached || got[1].Summary != nil || got[1].Index != 1 {
		t.Fatalf("stored plain cell slot %+v", got[1])
	}

	want := ex.Execute(context.Background(), cells[:1], nil)[0]
	got = ex.Lookup(cells)
	if got[0].Result == nil || !got[0].Cached || !reflect.DeepEqual(got[0].Summary, want.Summary) {
		t.Fatalf("slot with stored solos %+v, want summary %+v", got[0], want.Summary)
	}
	if got[2].Result != nil {
		t.Error("unstored cell filled")
	}
	if _, ran := counts.Load(absent.Fingerprint); ran {
		t.Error("Lookup simulated a cell")
	}
}
