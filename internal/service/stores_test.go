package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
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

// countingCkpts counts checkpoint publishes (cold warmups) through a
// store.
type countingCkpts struct {
	inner ckpt.Store
	puts  atomic.Int64
}

func (s *countingCkpts) Get(key string) (*ckpt.Image, bool) { return s.inner.Get(key) }

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

// TestServiceWarmsOnce: on a server with several local slots, a
// single-group sweep pays for exactly one cold warmup; the siblings
// fork from it.
func TestServiceWarmsOnce(t *testing.T) {
	store := &countingCkpts{inner: ckpt.NewMemStore(0)}
	_, ts := newTestServer(t, Options{Workers: 4, Checkpoints: store})
	st := runSweepToDone(t, ts, oneGroupSweep("icount", "stall", "flush", "dg", "pdg", "dwarn"))
	if st.Done != 6 {
		t.Fatalf("sweep %d/%d done", st.Done, st.Total)
	}
	if n := store.puts.Load(); n != 1 {
		t.Errorf("%d cold warmups, want exactly 1", n)
	}
}
