package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/fabric"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// runSweepToDone posts a sweep and polls it to StateDone.
func runSweepToDone(t *testing.T, ts *httptest.Server, sweep spec.SweepSpec) SweepStatus {
	t.Helper()
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished in state %q (%d/%d done)", st.State, st.Done, st.Total)
	}
	return st
}

// TestServiceFabricSweep runs a sweep through a fabric-enabled server
// that no remote worker has joined: the local slots drain the line,
// GET /v2/fabric reports the empty fleet, and the public sweep API
// behaves exactly as without the fabric.
func TestServiceFabricSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 2,
		Fabric:  &FabricOptions{LeaseTTL: time.Second},
	})

	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "dwarn"}, {Name: "icount"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}},
		Seeds:        []uint64{1, 2},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	st := runSweepToDone(t, ts, sweep)
	if st.Total != 4 || st.Done != 4 {
		t.Fatalf("sweep %d/%d done, want 4/4", st.Done, st.Total)
	}

	var fs fabric.Status
	getJSON(t, ts, "/v2/fabric", &fs)
	if !fs.Enabled {
		t.Fatal("/v2/fabric reports disabled on a fabric-enabled server")
	}
	if len(fs.Workers) != 0 || fs.LeasesTotal != 0 || fs.CompletedTotal != 0 || fs.QueueDepth != 0 {
		t.Fatalf("status = %+v, want no workers, no leases and an empty line", fs)
	}

	// The fabric counters surface on /metrics too.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, series := range []string{"dwarn_fabric_completes_total", "dwarn_fabric_queue_depth", "dwarn_fabric_workers"} {
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestServiceFabricDisabledProbe: without Options.Fabric the probe
// endpoint still answers, reporting enabled=false.
func TestServiceFabricDisabledProbe(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var fs fabric.Status
	resp := getJSON(t, ts, "/v2/fabric", &fs)
	if resp.StatusCode != http.StatusOK || fs.Enabled {
		t.Fatalf("GET /v2/fabric on plain server: status %d enabled %v", resp.StatusCode, fs.Enabled)
	}
}

// TestServiceDurableStore: with Options.Store the result cache is
// backed by a DirStore — results land on disk, and a fresh server (cold
// LRU) over the same directory serves the whole sweep from the store at
// submit time.
func TestServiceDurableStore(t *testing.T) {
	dir := t.TempDir()
	ds, err := exec.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}},
		Seeds:        []uint64{1, 2, 3},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}

	_, ts := newTestServer(t, Options{Workers: 2, Store: ds})
	st := runSweepToDone(t, ts, sweep)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != st.Total {
		t.Fatalf("store dir holds %d entries after a %d-cell sweep", len(ents), st.Total)
	}

	// A second server over the same directory has a cold LRU but a warm
	// durable tier: the identical sweep completes at submission, every
	// cell cached.
	ds2, err := exec.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Options{Workers: 2, Store: ds2})
	resp, raw := postJSON(t, ts2, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var again SweepStatus
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Done != again.Total {
		t.Fatalf("restarted server did not serve the sweep from the durable store: %d/%d (state %s)",
			again.Done, again.Total, again.State)
	}
	for _, cell := range again.Cells {
		if !cell.Cached {
			t.Fatalf("cell %s not served from the durable store", cell.Fingerprint[:12])
		}
	}
}

// countingCkpts counts checkpoint publishes (cold warmups) and hits
// (forks) through a store.
type countingCkpts struct {
	inner      ckpt.Store
	puts, hits atomic.Int64
}

func (s *countingCkpts) Get(key string) (*ckpt.Image, bool) {
	img, ok := s.inner.Get(key)
	if ok {
		s.hits.Add(1)
	}
	return img, ok
}

func (s *countingCkpts) Put(key string, img *ckpt.Image) {
	s.puts.Add(1)
	s.inner.Put(key, img)
}

// oneGroupSweep is a sweep whose cells share one checkpoint group: one
// workload and seed, several policies.
func oneGroupSweep(policies ...string) spec.SweepSpec {
	sw := spec.SweepSpec{
		Workloads:    []spec.Workload{{Name: "2-ILP"}},
		Seeds:        []uint64{11},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	for _, p := range policies {
		sw.Policies = append(sw.Policies, spec.PolicyAxis{Name: p})
	}
	return sw
}

// TestServiceFabricWarmsOnce: on a fabric-enabled server with several
// local slots, a single-group sweep pays for exactly one cold warmup;
// the siblings fork from it.
func TestServiceFabricWarmsOnce(t *testing.T) {
	store := &countingCkpts{inner: ckpt.NewMemStore(0)}
	_, ts := newTestServer(t, Options{Workers: 4, Fabric: &FabricOptions{}, Checkpoints: store})
	st := runSweepToDone(t, ts, oneGroupSweep("icount", "stall", "flush", "dg", "pdg", "dwarn"))
	if st.Done != 6 {
		t.Fatalf("sweep %d/%d done", st.Done, st.Total)
	}
	if n := store.puts.Load(); n != 1 {
		t.Errorf("%d cold warmups, want exactly 1", n)
	}
}

// TestServiceFabricRemoteWarmReleasesSiblings: when a remote worker
// warms a group, the image it publishes to /v2/fabric/ckpt releases the
// group's waiting siblings at once — they fork and finish while the
// warming cell is still running.
func TestServiceFabricRemoteWarmReleasesSiblings(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: -1, Fabric: &FabricOptions{LeaseTTL: 5 * time.Second}})

	forks := &countingCkpts{inner: fabric.NewRemoteCkptStore(ts.URL, "", nil)}
	release := make(chan struct{})
	var leader atomic.Bool
	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: ts.URL, LeaseWait: 50 * time.Millisecond,
		Executor: exec.New(exec.Options{Workers: 3, Registry: obs.NewRegistry(), Checkpoints: forks,
			Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
				r, err := sim.RunContext(ctx, res.Options)
				// Siblings wait at the warm gate, so the first cell taken
				// is the group's leader: hold its completion back.
				if leader.CompareAndSwap(false, true) {
					select {
					case <-release:
					case <-ctx.Done():
					}
				}
				return r, err
			}}),
	})
	ctx, stop := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		stop()
		<-stopped
	})

	resp, raw := postJSON(t, ts, "/v2/sweeps", oneGroupSweep("icount", "stall", "dwarn"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for st.Done < 2 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("siblings did not finish while the leader ran: %d/%d done", st.Done, st.Total)
		}
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	if st.State != StateRunning {
		t.Fatalf("sweep %s before the leader finished", st.State)
	}
	close(release)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	if st.State != StateDone || st.Done != 3 {
		t.Fatalf("sweep ended %s with %d/%d done", st.State, st.Done, st.Total)
	}
	if n := forks.puts.Load(); n != 1 {
		t.Errorf("%d warmups published, want 1", n)
	}
	if n := forks.hits.Load(); n != 2 {
		t.Errorf("%d sibling forks from the coordinator, want 2", n)
	}
}
