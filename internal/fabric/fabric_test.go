package fabric

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/trace"
)

// Short protocol for tests: plumbing, not measurement quality.
const (
	testWarmup  = 100
	testMeasure = 300
)

// resolveGrid expands a policies × seeds grid into resolved cells.
func resolveGrid(t *testing.T, policies []string, seeds []uint64) []*spec.Resolved {
	t.Helper()
	var out []*spec.Resolved
	for _, p := range policies {
		for _, seed := range seeds {
			rs := spec.RunSpec{
				Policy:       spec.Policy{Name: p},
				Workload:     spec.Workload{Name: "2-MIX"},
				Seed:         seed,
				WarmupCycles: testWarmup, MeasureCycles: testMeasure,
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

// serialDigests runs the grid on a plain one-worker executor and
// returns fingerprint → counter digest: the determinism oracle every
// fabric execution must reproduce bit for bit.
func serialDigests(t *testing.T, cells []*spec.Resolved) map[string]string {
	t.Helper()
	ex := exec.New(exec.Options{Workers: 1, Registry: obs.NewRegistry()})
	out := map[string]string{}
	for _, r := range ex.Execute(context.Background(), cells, nil) {
		if r.Err != nil {
			t.Fatalf("serial cell %s: %v", r.Fingerprint, r.Err)
		}
		out[r.Fingerprint] = r.Result.CounterDigest()
	}
	return out
}

// newTestFabric starts a coordinator over an executor with no local
// slots, so every cell waits for a remote worker, and serves its lease
// protocol on an httptest server.
func newTestFabric(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	return serveFabric(t, exec.New(exec.Options{Workers: -1, Registry: obs.NewRegistry()}), cfg)
}

// serveFabric starts a coordinator over ex's wait line and serves its
// lease protocol on an httptest server.
func serveFabric(t *testing.T, ex *exec.Executor, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	c := NewCoordinator(ex, cfg)
	mux := http.NewServeMux()
	c.Routes(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return c, ts
}

// workerExec builds a worker's executor: n local slots running run
// (nil = the simulator) on a registry of its own.
func workerExec(n int, run exec.RunFunc) *exec.Executor {
	return exec.New(exec.Options{Workers: n, Run: run, Registry: obs.NewRegistry()})
}

// startWorker runs a Worker against the coordinator URL under its own
// cancellable context and returns it with its stop function.
func startWorker(t *testing.T, url string, opts WorkerOptions) (*Worker, context.CancelFunc) {
	t.Helper()
	opts.Coordinator = url
	if opts.LeaseWait == 0 {
		opts.LeaseWait = 50 * time.Millisecond
	}
	w := NewWorker(opts)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w, cancel
}

// executeFabric drives the grid through the coordinator's executor and
// returns fingerprint → digest.
func executeFabric(t *testing.T, c *Coordinator, cells []*spec.Resolved) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range c.line.Execute(context.Background(), cells, nil) {
		if r.Err != nil {
			t.Fatalf("fabric cell %s: %v", r.Fingerprint, r.Err)
		}
		out[r.Fingerprint] = r.Result.CounterDigest()
	}
	return out
}

// runOne executes one cell through the coordinator's executor.
func runOne(ctx context.Context, c *Coordinator, cell *spec.Resolved) (*sim.Result, error) {
	r := c.line.Execute(ctx, []*spec.Resolved{cell}, nil)[0]
	return r.Result, r.Err
}

// TestFabricDigestsMatchSerial is the core determinism guarantee: a
// sweep distributed over two remote worker processes produces per-cell
// counter digests bit-identical to a serial run.
func TestFabricDigestsMatchSerial(t *testing.T) {
	cells := resolveGrid(t, []string{"icount", "dwarn"}, []uint64{1, 2, 3})
	want := serialDigests(t, cells)

	c, ts := newTestFabric(t, Config{LeaseTTL: 2 * time.Second})
	startWorker(t, ts.URL, WorkerOptions{Name: "wA", Executor: workerExec(2, nil)})
	startWorker(t, ts.URL, WorkerOptions{Name: "wB", Executor: workerExec(2, nil)})

	got := executeFabric(t, c, cells)
	if len(got) != len(want) {
		t.Fatalf("fabric resolved %d fingerprints, want %d", len(got), len(want))
	}
	for fp, d := range want {
		if got[fp] != d {
			t.Errorf("digest mismatch for %s: fabric %s, serial %s", fp[:12], got[fp][:12], d[:12])
		}
	}

	st := c.Status()
	if st.CompletedTotal != uint64(len(cells)) {
		t.Errorf("completed_total = %d, want %d", st.CompletedTotal, len(cells))
	}
	if st.RequeuesTotal != 0 {
		t.Errorf("healthy run requeued %d cells", st.RequeuesTotal)
	}
}

// TestFabricBaselinesLeaseIsTheSimulationAlone: a leased baselines
// cell is just its simulation. Its solos reach the worker as leases of
// their own, so the worker's executor completes exactly three cells
// (the 2-MIX cell and its gzip and twolf solos), and the coordinator's
// executor returns the summary.
func TestFabricBaselinesLeaseIsTheSimulationAlone(t *testing.T) {
	rs := resolveGrid(t, []string{"dwarn"}, []uint64{1})[0].Spec
	rs.Baselines = true
	cell, err := rs.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	c, ts := newTestFabric(t, Config{LeaseTTL: 2 * time.Second})
	reg := obs.NewRegistry()
	startWorker(t, ts.URL, WorkerOptions{Name: "w", Executor: exec.New(exec.Options{Workers: 2, Registry: reg})})

	r := c.line.Execute(context.Background(), []*spec.Resolved{cell}, nil)[0]
	if r.Err != nil || r.Summary == nil {
		t.Fatalf("baselines cell: err %v, summary %v", r.Err, r.Summary)
	}
	var cells uint64
	for _, state := range []string{exec.CellDone, exec.CellCached} {
		cells += reg.Counter("dwarn_exec_cells_total", "", obs.L("state", state)).Value()
	}
	if cells != 3 {
		t.Errorf("worker completed %d cells, want 3", cells)
	}
}

// TestFabricWorkerKillMidSweep kills one worker (context cancel: no
// completions, no further heartbeats — the observable behaviour of
// SIGKILL) while it holds leases. The coordinator must requeue its
// cells on lease expiry, a healthy worker must finish the sweep, and
// the digests must still match the serial oracle.
func TestFabricWorkerKillMidSweep(t *testing.T) {
	cells := resolveGrid(t, []string{"icount", "dwarn"}, []uint64{1, 2, 3})
	want := serialDigests(t, cells)

	c, ts := newTestFabric(t, Config{LeaseTTL: 150 * time.Millisecond})

	// The doomed worker traps every cell it leases: the simulation never
	// returns until the worker dies, as if it had hung mid-cell.
	leased := make(chan struct{}, 16)
	_, kill := startWorker(t, ts.URL, WorkerOptions{
		Name: "doomed",
		Executor: workerExec(2, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			leased <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}),
	})

	done := make(chan map[string]string, 1)
	go func() { done <- executeFabric(t, c, cells) }()

	// Wait until the doomed worker holds at least one cell, then kill it
	// and bring up the healthy worker that will finish the sweep.
	select {
	case <-leased:
	case <-time.After(10 * time.Second):
		t.Fatal("doomed worker never leased a cell")
	}
	kill()
	startWorker(t, ts.URL, WorkerOptions{Name: "healthy", Executor: workerExec(2, nil)})

	var got map[string]string
	select {
	case got = <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not complete after worker kill")
	}
	for fp, d := range want {
		if got[fp] != d {
			t.Errorf("digest mismatch for %s after kill: fabric %s, serial %s", fp[:12], got[fp][:12], d[:12])
		}
	}
	if st := c.Status(); st.RequeuesTotal == 0 {
		t.Error("killing a lease-holding worker recorded no requeues")
	}
}

// TestFabricHeartbeatDropStaleCompletion partitions a worker without
// killing it: heartbeats stop, the lease expires and the cell is
// re-leased to a healthy worker, and the partitioned worker's eventual
// completion is the late one — accepted only if it wins the race,
// stale otherwise. Either way the cell resolves exactly once.
func TestFabricHeartbeatDropStaleCompletion(t *testing.T) {
	cells := resolveGrid(t, []string{"icount"}, []uint64{7})
	c, ts := newTestFabric(t, Config{LeaseTTL: 100 * time.Millisecond})

	fake := func(res *spec.Resolved) *sim.Result {
		return &sim.Result{Workload: res.Spec.Workload.ID(), Policy: res.Spec.Policy.ID(), Cycles: 42}
	}

	// The partitioned worker computes slowly and silently: by the time
	// its result is pushed, the lease has long expired.
	slowDone := make(chan struct{})
	slow, _ := startWorker(t, ts.URL, WorkerOptions{
		Name: "partitioned",
		Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			defer close(slowDone)
			time.Sleep(400 * time.Millisecond)
			return fake(res), nil
		}),
	})
	slow.SetHeartbeats(false)

	var healthyRuns atomic.Int64
	var healthyOnce sync.Once
	healthyUp := func() {
		healthyOnce.Do(func() {
			startWorker(t, ts.URL, WorkerOptions{
				Name: "healthy",
				Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
					healthyRuns.Add(1)
					return fake(res), nil
				}),
			})
		})
	}
	// Bring the healthy worker up only after the slow worker has had a
	// chance to lease the cell first (it registered first and its lease
	// wait is shorter than the healthy worker's startup delay).
	time.AfterFunc(50*time.Millisecond, healthyUp)

	res, err := runOne(context.Background(), c, cells[0])
	if err != nil {
		t.Fatalf("cell: %v", err)
	}
	if res.Cycles != 42 {
		t.Fatalf("unexpected result %+v", res)
	}

	<-slowDone // let the partitioned worker push its late completion
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if st.RequeuesTotal >= 1 && st.StaleTotal+st.CompletedTotal >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requeue/stale never recorded: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := c.Status()
	if st.CompletedTotal != 1 {
		t.Errorf("cell resolved %d times, want exactly once", st.CompletedTotal)
	}
	if st.StaleTotal != 1 {
		t.Errorf("stale completions = %d, want 1 (the partitioned worker's late push)", st.StaleTotal)
	}
}

// TestFabricDoubleCompleteIdempotent pushes the same completion twice:
// the first resolves the cell, the second is acknowledged stale.
func TestFabricDoubleCompleteIdempotent(t *testing.T) {
	c, _ := newTestFabric(t, Config{})
	cells := resolveGrid(t, []string{"icount"}, []uint64{1})

	w := WorkerInfo{ID: "test-1", Name: "test", Capacity: 1}
	resCh := make(chan error, 1)
	go func() {
		_, err := runOne(context.Background(), c, cells[0])
		resCh <- err
	}()

	var leases []Lease
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for len(leases) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cell never leased")
		}
		leases, err = c.leaseBatch(context.Background(), w, 1, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
	}
	req := CompleteRequest{
		Worker: w, LeaseID: leases[0].ID, Fingerprint: leases[0].Fingerprint,
		Result: &sim.Result{Cycles: 1},
	}
	first, err := c.complete(req)
	if err != nil || !first.Accepted {
		t.Fatalf("first complete: %+v, %v", first, err)
	}
	second, err := c.complete(req)
	if err != nil {
		t.Fatalf("second complete: %v", err)
	}
	if second.Accepted || !second.Stale {
		t.Errorf("second complete = %+v, want stale", second)
	}
	if err := <-resCh; err != nil {
		t.Fatalf("cell: %v", err)
	}
}

// TestFabricTraceCellsStayLocal: cells whose workload replays an
// uploaded trace can only run where the trace store lives. With no
// local slots they fail at once; with one they run locally and are
// never granted to a remote worker.
func TestFabricTraceCellsStayLocal(t *testing.T) {
	traceCell := &spec.Resolved{
		Spec:        spec.RunSpec{},
		Options:     sim.Options{Trace: &trace.Trace{}},
		Fingerprint: "feedfacefeedface",
	}

	c, _ := newTestFabric(t, Config{})
	if _, err := runOne(context.Background(), c, traceCell); !errors.Is(err, exec.ErrNoLocalSlots) {
		t.Fatalf("trace cell with no local slots: err = %v, want exec.ErrNoLocalSlots", err)
	}

	// A remote worker long-polling the line must never receive the
	// trace cell; the local slot runs it.
	ex := exec.New(exec.Options{Workers: 1, Registry: obs.NewRegistry(),
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return &sim.Result{Cycles: 7}, nil
		}})
	c, ts := serveFabric(t, ex, Config{})
	var remoteLeased atomic.Int64
	startWorker(t, ts.URL, WorkerOptions{
		Name: "remote",
		Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			remoteLeased.Add(1)
			return &sim.Result{}, nil
		}),
	})
	res, err := runOne(context.Background(), c, traceCell)
	if err != nil {
		t.Fatalf("trace cell with a local slot: %v", err)
	}
	if res.Cycles != 7 {
		t.Fatalf("trace cell ran remotely? result %+v", res)
	}
	if n := remoteLeased.Load(); n != 0 {
		t.Errorf("remote worker executed %d trace cells", n)
	}
}

// TestFabricDispatchCancel: cancelling the submitting context releases
// the caller promptly and tells the leasing worker (via heartbeat) to
// abandon the simulation.
func TestFabricDispatchCancel(t *testing.T) {
	cells := resolveGrid(t, []string{"icount"}, []uint64{3})
	c, ts := newTestFabric(t, Config{LeaseTTL: 300 * time.Millisecond})

	running := make(chan struct{})
	aborted := make(chan struct{})
	startWorker(t, ts.URL, WorkerOptions{
		Name: "w",
		Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			close(running)
			<-ctx.Done()
			close(aborted)
			return nil, ctx.Err()
		}),
	})

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := runOne(ctx, c, cells[0])
		errCh <- err
	}()
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("cell never started on the worker")
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cell returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cell did not release on cancel")
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("worker simulation was never told to abandon the canceled cell")
	}
}

// TestFabricSharedStoreShortCircuit: a worker pointed at a store that
// already holds a leased fingerprint completes from the store without
// simulating.
func TestFabricSharedStoreShortCircuit(t *testing.T) {
	cells := resolveGrid(t, []string{"icount"}, []uint64{9})
	fp := cells[0].Fingerprint
	store := exec.NewMemStore()
	store.Put(fp, &sim.Result{Cycles: 77})

	c, ts := newTestFabric(t, Config{})
	var simulated atomic.Int64
	startWorker(t, ts.URL, WorkerOptions{
		Name: "w",
		Executor: exec.New(exec.Options{Workers: 1, Store: store, Registry: obs.NewRegistry(),
			Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
				simulated.Add(1)
				return &sim.Result{}, nil
			}}),
	})
	res, err := runOne(context.Background(), c, cells[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 77 {
		t.Fatalf("result %+v, want the stored one", res)
	}
	if simulated.Load() != 0 {
		t.Error("worker simulated a cell its store already held")
	}
}

// TestFabricMixedFleetDigestsMatchSerial: one local slot and two remote
// workers drain one line. Both sides run cells, and every digest
// matches a serial run.
func TestFabricMixedFleetDigestsMatchSerial(t *testing.T) {
	cells := resolveGrid(t, []string{"icount", "stall", "dwarn", "flush"}, []uint64{1, 2, 3})
	want := serialDigests(t, cells)

	var local atomic.Int64
	ex := exec.New(exec.Options{Workers: 1, Registry: obs.NewRegistry(),
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			local.Add(1)
			// Hold the slot a little, so the workers' long-polls see
			// the line before the local slot drains it.
			time.Sleep(20 * time.Millisecond)
			return sim.RunContext(ctx, res.Options)
		}})
	c, ts := serveFabric(t, ex, Config{LeaseTTL: 2 * time.Second})
	startWorker(t, ts.URL, WorkerOptions{Name: "wA", Executor: workerExec(1, nil)})
	startWorker(t, ts.URL, WorkerOptions{Name: "wB", Executor: workerExec(1, nil)})
	deadline := time.Now().Add(10 * time.Second)
	for len(c.Status().Workers) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	got := executeFabric(t, c, cells)
	for fp, d := range want {
		if got[fp] != d {
			t.Errorf("digest mismatch for %s: fabric %s, serial %s", fp[:12], got[fp], d)
		}
	}
	remote := c.Status().CompletedTotal
	if local.Load() == 0 || remote == 0 {
		t.Errorf("local slot ran %d cells, remote workers %d; want both >= 1", local.Load(), remote)
	}
	if n := local.Load() + int64(remote); n != int64(len(cells)) {
		t.Errorf("%d cells ran, want %d (each exactly once)", n, len(cells))
	}
}

// TestWorkerExportsExecutorMetrics: a worker runs its leases on its
// executor, so the executor's series count the worker's cells.
func TestWorkerExportsExecutorMetrics(t *testing.T) {
	cells := resolveGrid(t, []string{"icount"}, []uint64{5})
	c, ts := newTestFabric(t, Config{})
	reg := obs.NewRegistry()
	startWorker(t, ts.URL, WorkerOptions{Name: "w", Executor: exec.New(exec.Options{Workers: 1, Registry: reg,
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return &sim.Result{Cycles: 3}, nil
		}})})
	if _, err := runOne(context.Background(), c, cells[0]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `dwarn_exec_cells_total{state="done"} 1`; !strings.Contains(buf.String(), want+"\n") {
		t.Errorf("worker registry lacks %q:\n%s", want, buf.String())
	}
}

// eventually polls cond until it holds, failing the test after 10s.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// inFleet reports whether a worker named name is in c's status.
func inFleet(c *Coordinator, name string) bool {
	for _, w := range c.Status().Workers {
		if w.Name == name {
			return true
		}
	}
	return false
}

// TestFabricCoordinatorRestart: the coordinator behind one URL is
// replaced by a fresh one mid-test, as after a restart. The running
// worker carries on with no registration step: it finishes the new
// coordinator's cells with serial digests and shows up in its status.
func TestFabricCoordinatorRestart(t *testing.T) {
	cells := resolveGrid(t, []string{"icount", "dwarn"}, []uint64{1, 2})
	want := serialDigests(t, cells)

	var handler atomic.Pointer[http.ServeMux]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	serve := func() *Coordinator {
		c := NewCoordinator(exec.New(exec.Options{Workers: -1, Registry: obs.NewRegistry()}),
			Config{LeaseTTL: 2 * time.Second, Registry: obs.NewRegistry()})
		t.Cleanup(c.Close)
		mux := http.NewServeMux()
		c.Routes(mux)
		handler.Store(mux)
		return c
	}

	first := serve()
	startWorker(t, ts.URL, WorkerOptions{Name: "phoenix", Executor: workerExec(2, nil)})
	got := executeFabric(t, first, cells[:2])

	second := serve()
	first.Close()
	for fp, d := range executeFabric(t, second, cells[2:]) {
		got[fp] = d
	}
	for fp, d := range want {
		if got[fp] != d {
			t.Errorf("digest mismatch for %s across the restart: fabric %s, serial %s", fp[:12], got[fp], d)
		}
	}
	if !inFleet(second, "phoenix") {
		t.Errorf("worker missing from the new coordinator's status: %+v", second.Status().Workers)
	}
	if st := second.Status(); st.CompletedTotal != 2 {
		t.Errorf("new coordinator completed %d cells, want 2", st.CompletedTotal)
	}
}

// TestFabricSilentWorkerExpires: a worker that stops heartbeating
// mid-cell loses its lease after one TTL and leaves the fleet after
// four. A healthy worker finishes the requeued cell, the silent
// worker's late push is then stale, and its next RPC brings it back.
func TestFabricSilentWorkerExpires(t *testing.T) {
	const ttl = 100 * time.Millisecond
	cells := resolveGrid(t, []string{"icount"}, []uint64{11})
	c, ts := newTestFabric(t, Config{LeaseTTL: ttl})

	running, release := make(chan struct{}), make(chan struct{})
	silent, _ := startWorker(t, ts.URL, WorkerOptions{
		Name: "silent",
		Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			close(running)
			<-release
			return &sim.Result{Cycles: 1}, nil
		}),
	})
	silent.SetHeartbeats(false)

	resCh := make(chan *sim.Result, 1)
	go func() {
		res, err := runOne(context.Background(), c, cells[0])
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	select {
	case <-running:
	case <-time.After(10 * time.Second):
		t.Fatal("silent worker never leased the cell")
	}
	time.Sleep(2 * ttl)
	if !inFleet(c, "silent") {
		t.Fatal("worker dropped after 2 lease TTLs of silence; the worker TTL is 4")
	}
	eventually(t, "the silent worker to leave the fleet", func() bool { return !inFleet(c, "silent") })
	if st := c.Status(); st.RequeuesTotal != 1 {
		t.Errorf("requeues = %d, want 1", st.RequeuesTotal)
	}

	startWorker(t, ts.URL, WorkerOptions{
		Name: "healthy",
		Executor: workerExec(1, func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			return &sim.Result{Cycles: 42}, nil
		}),
	})
	if res := <-resCh; res == nil || res.Cycles != 42 {
		t.Fatalf("cell resolved with %+v, want the healthy worker's result", res)
	}
	close(release)
	eventually(t, "the late push and the silent worker's return", func() bool {
		return c.Status().StaleTotal == 1 && inFleet(c, "silent")
	})
	if st := c.Status(); st.CompletedTotal != 1 {
		t.Errorf("cell resolved %d times, want exactly once", st.CompletedTotal)
	}
}
