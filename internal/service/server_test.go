package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/workload"
)

// Short protocol for tests: these exercise the service plumbing, not
// measurement quality.
const (
	testWarmup  = 2_000
	testMeasure = 5_000
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		// Cancel whatever is still active so the drain is immediate.
		srv.stopAll()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, ts
}

// decodeSim recovers the payload of a done run's JobView.
func decodeSim(raw []byte) (*SimulationResult, error) {
	var sr SimulationResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, fmt.Errorf("corrupt run payload %q: %w", raw, err)
	}
	return &sr, nil
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: bad JSON %q: %v", path, body, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

func submitSim(t *testing.T, ts *httptest.Server, req SimulationRequest) JobView {
	t.Helper()
	resp, raw := postJSON(t, ts, "/v1/simulations", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/simulations: status %d body %s", resp.StatusCode, raw)
	}
	var v JobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad job view %q: %v", raw, err)
	}
	return v
}

// waitJob polls a job until it reaches one of the wanted states.
func waitJob(t *testing.T, ts *httptest.Server, id string, want ...string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		getJSON(t, ts, "/v1/simulations/"+id, &v)
		for _, w := range want {
			if v.State == w {
				return v
			}
		}
		if v.State == StateDone || v.State == StateFailed || v.State == StateCanceled {
			t.Fatalf("job %s reached %q (error %q), wanted one of %v", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach %v in time", id, want)
	return JobView{}
}

func TestCatalogEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	var health struct {
		Status string     `json:"status"`
		Cache  CacheStats `json:"cache"`
	}
	if resp := getJSON(t, ts, "/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	var pols struct {
		Policies []string `json:"policies"`
		Paper    []string `json:"paper"`
	}
	getJSON(t, ts, "/v1/policies", &pols)
	if len(pols.Paper) != 6 {
		t.Fatalf("want 6 paper policies, got %v", pols.Paper)
	}

	var wls struct {
		Workloads []struct {
			Name    string `json:"name"`
			Threads int    `json:"threads"`
		} `json:"workloads"`
	}
	getJSON(t, ts, "/v1/workloads", &wls)
	if len(wls.Workloads) != 12 {
		t.Fatalf("want 12 workloads, got %d", len(wls.Workloads))
	}

	var benches struct {
		Benchmarks []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"benchmarks"`
	}
	getJSON(t, ts, "/v1/benchmarks", &benches)
	if len(benches.Benchmarks) != 12 {
		t.Fatalf("want 12 benchmarks, got %d", len(benches.Benchmarks))
	}

	var machines struct {
		Machines []string `json:"machines"`
	}
	getJSON(t, ts, "/v1/machines", &machines)
	if len(machines.Machines) != 3 {
		t.Fatalf("want 3 machines, got %v", machines.Machines)
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SimulationRequest{
		Policy: "dwarn", Workload: "2-MIX",
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	v := submitSim(t, ts, req)
	if v.State != StateQueued && v.State != StateRunning && v.State != StateDone {
		t.Fatalf("fresh job in state %q", v.State)
	}
	done := waitJob(t, ts, v.ID, StateDone)
	if done.Cached {
		t.Fatal("first run reported cached")
	}

	sr, err := decodeSim(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.EqualFold(sr.Result.Policy, "dwarn") || sr.Result.Workload != "2-MIX" {
		t.Fatalf("result identifies %s/%s", sr.Result.Policy, sr.Result.Workload)
	}
	if sr.Result.Throughput <= 0 || len(sr.Result.Threads) != 2 {
		t.Fatalf("implausible result: throughput %f, %d threads", sr.Result.Throughput, len(sr.Result.Threads))
	}
	if sr.Fingerprint == "" {
		t.Fatal("missing fingerprint")
	}
}

func TestRepeatRequestServedFromCacheIdenticalBytes(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	req := SimulationRequest{
		Policy: "icount", Workload: "2-ILP", Seed: 7,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	first := waitJob(t, ts, submitSim(t, ts, req).ID, StateDone)
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	hitsBefore := srv.CacheStats().Hits

	second := submitSim(t, ts, req)
	if second.State != StateDone {
		t.Fatalf("repeat submission not completed at submit time: %q", second.State)
	}
	if !second.Cached {
		t.Fatal("repeat submission not marked cached")
	}
	if !bytes.Equal(first.Result, second.Result) {
		t.Fatalf("cached result bytes differ:\n%s\n%s", first.Result, second.Result)
	}
	if hits := srv.CacheStats().Hits; hits <= hitsBefore {
		t.Fatalf("cache hits did not increase (%d -> %d)", hitsBefore, hits)
	}
}

func TestBaselinesSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := SimulationRequest{
		Policy: "dwarn", Workload: "2-MIX", Baselines: true,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	done := waitJob(t, ts, submitSim(t, ts, req).ID, StateDone)
	sr, err := decodeSim(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Summary == nil {
		t.Fatal("baselines run missing summary")
	}
	if sr.Summary.Hmean <= 0 || sr.Summary.WeightedSpeedup <= 0 || len(sr.Summary.RelativeIPCs) != 2 {
		t.Fatalf("implausible summary %+v", sr.Summary)
	}
}

func TestSweepFanOutMatchesDirectRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := SweepRequest{
		Workloads:    []string{"4-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	resp, raw := postJSON(t, ts, "/v1/sweeps", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 {
		t.Fatalf("sweep over paper policies × 4-MIX has %d cells, want 6", st.Total)
	}

	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v1/sweeps/"+st.ID, &st)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished in state %q (%d/%d done)", st.State, st.Done, st.Total)
	}

	// Every cell's throughput must match sim.Run called directly with
	// the same options — the service adds queueing and caching, never
	// different numbers.
	for _, cell := range st.Cells {
		if cell.Throughput == nil {
			t.Fatalf("cell %s/%s missing throughput", cell.Policy, cell.Workload)
		}
		wl, err := workload.GetWorkload(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := sim.Run(sim.Options{
			Policy: cell.Policy, Workload: wl,
			WarmupCycles: testWarmup, MeasureCycles: testMeasure,
		})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(direct.Throughput-*cell.Throughput) > 1e-12 {
			t.Fatalf("cell %s: service %.6f vs direct %.6f", cell.Policy, *cell.Throughput, direct.Throughput)
		}
	}
}

func TestCancelMidJob(t *testing.T) {
	// One worker and a deliberately long run so the job is mid-flight
	// when the cancel arrives.
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000})
	v := submitSim(t, ts, SimulationRequest{
		Policy: "flush", Workload: "8-MEM",
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	})
	waitJob(t, ts, v.ID, StateRunning)

	delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/simulations/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", resp.StatusCode)
	}

	got := waitJob(t, ts, v.ID, StateCanceled)
	if got.Result != nil {
		t.Fatal("canceled job has a result")
	}

	// The worker must be free again: a short job completes.
	short := submitSim(t, ts, SimulationRequest{
		Policy: "icount", Workload: "2-ILP",
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	waitJob(t, ts, short.ID, StateDone)
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000})
	long := submitSim(t, ts, SimulationRequest{
		Policy: "icount", Workload: "8-MEM",
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	})
	waitJob(t, ts, long.ID, StateRunning)

	queued := submitSim(t, ts, SimulationRequest{
		Policy: "stall", Workload: "2-MEM",
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	for _, id := range []string{queued.ID, long.ID} {
		delReq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/simulations/"+id, nil)
		resp, err := http.DefaultClient.Do(delReq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("DELETE %s status %d", id, resp.StatusCode)
		}
	}
	waitJob(t, ts, queued.ID, StateCanceled)
	waitJob(t, ts, long.ID, StateCanceled)
}

func TestQueueFullRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxCycles: 500_000_000})
	long := SimulationRequest{
		Policy: "icount", Workload: "8-MEM",
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	}
	running := submitSim(t, ts, long)
	waitJob(t, ts, running.ID, StateRunning)

	// Occupies the single queue slot. A different seed avoids the
	// single-flight/cache identity of the running job.
	queued := long
	queued.Seed = 2
	submitSim(t, ts, queued)

	rejected := long
	rejected.Seed = 3
	resp, raw := postJSON(t, ts, "/v1/simulations", rejected)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d body %s", resp.StatusCode, raw)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []SimulationRequest{
		{},                                      // no policy
		{Policy: "dwarn"},                       // no workload
		{Policy: "nonesuch", Workload: "4-MIX"}, // unknown policy
		{Policy: "dwarn", Workload: "nonesuch"},
		{Policy: "dwarn", Workload: "4-MIX", Benchmarks: []string{"gzip"}}, // both
		{Policy: "dwarn", Workload: "8-MIX", Machine: "small"},             // too many threads
		{Policy: "dwarn", Workload: "4-MIX", MeasureCycles: 100_000_000},   // over cap
		{Policy: "dwarn", Benchmarks: []string{"nonesuch"}},
	}
	for i, req := range cases {
		resp, raw := postJSON(t, ts, "/v1/simulations", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d body %s", i, resp.StatusCode, raw)
		}
	}
	if resp := getJSON(t, ts, "/v1/simulations/nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v1/sweeps/nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing sweep: status %d", resp.StatusCode)
	}
}

func TestCustomBenchmarksWorkload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := SimulationRequest{
		Policy:       "dwarn",
		Benchmarks:   []string{"gzip", "mcf"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	done := waitJob(t, ts, submitSim(t, ts, req).ID, StateDone)
	sr, err := decodeSim(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Result.Threads) != 2 {
		t.Fatalf("custom workload ran %d threads", len(sr.Result.Threads))
	}
}

// TestConcurrentIdenticalSubmissions hammers the service with identical
// requests from many goroutines; the simulation must be paid for once
// (single-flight + cache), and every job must return the same bytes.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	req := SimulationRequest{
		Policy: "pdg", Workload: "2-MEM", Seed: 11,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	const clients = 16
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/simulations", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: status %d body %s", i, resp.StatusCode, raw)
				return
			}
			var v JobView
			if err := json.Unmarshal(raw, &v); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			deadline := time.Now().Add(60 * time.Second)
			for v.State != StateDone && time.Now().Before(deadline) {
				if v.State == StateFailed || v.State == StateCanceled {
					t.Errorf("client %d: job %s %s: %s", i, v.ID, v.State, v.Error)
					return
				}
				time.Sleep(5 * time.Millisecond)
				getJSON(t, ts, "/v1/simulations/"+v.ID, &v)
			}
			results[i] = v.Result
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("client %d saw different bytes", i)
		}
	}
}

// TestJobRecordPruning: terminal run records beyond the retention
// bound are pruned oldest first; the newest survives.
func TestJobRecordPruning(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	srv.mu.Lock()
	srv.runs.max = 2
	srv.mu.Unlock()
	req := SimulationRequest{
		Policy: "icount", Workload: "2-ILP",
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	waitJob(t, ts, submitSim(t, ts, req).ID, StateDone)
	var last string
	for i := 0; i < 4; i++ {
		last = submitSim(t, ts, req).ID // served from the store: terminal at submit
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v1/simulations", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("retained %d records, want 2", len(list.Jobs))
	}
	if list.Jobs[len(list.Jobs)-1].ID != last {
		t.Fatalf("newest record %s pruned (kept %s)", last, list.Jobs[len(list.Jobs)-1].ID)
	}
	if resp := getJSON(t, ts, "/v1/simulations/sim-000001", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest record still served: status %d", resp.StatusCode)
	}
}

// TestSweepCellErrorIsolated: one failing cell must not abort the
// sweep — its error is recorded in its slot while every sibling
// completes with a result.
func TestSweepCellErrorIsolated(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	// Swap in an executor whose RunFunc fails exactly the FLUSH cell;
	// everything else runs the real simulator over the same store.
	srv.exec = exec.New(exec.Options{
		Workers:  2,
		Store:    srv.cache,
		Registry: obs.NewRegistry(), // not obs.Default, which /metrics merges in later tests
		Run: func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			if res.Spec.Policy.Name == "flush" {
				return nil, errBoom
			}
			return sim.RunContext(ctx, res.Options)
		},
	})

	resp, raw := postJSON(t, ts, "/v1/sweeps", SweepRequest{
		Workloads:    []string{"4-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v1/sweeps/"+st.ID, &st)
	}
	if st.State != StateFailed {
		t.Fatalf("sweep with one bad cell finished %q, want failed", st.State)
	}
	if st.Failed != 1 || st.Done != st.Total-1 {
		t.Fatalf("counts done=%d failed=%d total=%d, want every other cell done", st.Done, st.Failed, st.Total)
	}
	for _, c := range st.Cells {
		if c.Policy == "flush" {
			if c.State != StateFailed || c.Error == "" {
				t.Fatalf("failing cell %+v", c)
			}
			continue
		}
		if c.State != StateDone || c.Throughput == nil {
			t.Fatalf("sibling cell %s must survive the failure: %+v", c.Policy, c)
		}
	}
}

var errBoom = errors.New("boom")

// TestSweepAdmissionBound: sweeps bypass the job queue, so they carry
// their own backpressure — beyond MaxActiveSweeps concurrently
// executing sweeps, submission fails fast with a 503 instead of piling
// up unbounded backlog. Cancelling an active sweep frees its slot.
func TestSweepAdmissionBound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000, MaxActiveSweeps: 2})
	long := SweepRequest{
		Policies:  []string{"icount"},
		Workloads: []string{"8-MEM"},
		// Long enough to still be running while the rest submit.
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	}
	var ids []string
	for i := 0; i < 2; i++ {
		req := long
		req.Seed = uint64(i + 1) // distinct cells so nothing dedups
		resp, raw := postJSON(t, ts, "/v1/sweeps", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("sweep %d: status %d body %s", i, resp.StatusCode, raw)
		}
		var st SweepStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}

	over := long
	over.Seed = 99
	resp, raw := postJSON(t, ts, "/v1/sweeps", over)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap sweep: status %d body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "too many active sweeps") {
		t.Fatalf("over-cap error body %s", raw)
	}

	// Free a slot and the same submission is admitted.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/sweeps/"+ids[0], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	var st SweepStatus
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		getJSON(t, ts, "/v2/sweeps/"+ids[0], &st)
		if st.State != StateRunning {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, raw = postJSON(t, ts, "/v1/sweeps", over)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel sweep: status %d body %s", resp.StatusCode, raw)
	}
	// Drain: cancel everything still running so cleanup is fast.
	var last SweepStatus
	if err := json.Unmarshal(raw, &last); err != nil {
		t.Fatal(err)
	}
	for _, id := range append(ids[1:], last.ID) {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/sweeps/"+id, nil)
		if dresp, err := http.DefaultClient.Do(req); err == nil {
			dresp.Body.Close()
		}
	}
}

// TestSweepCancelMidFlight: DELETE /v2/sweeps/{id} stops a running
// sweep cooperatively — running cells observe their context, queued
// cells never start, and the record stays observable as canceled.
func TestSweepCancelMidFlight(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000})
	resp, raw := postJSON(t, ts, "/v1/sweeps", SweepRequest{
		Workloads: []string{"8-MEM"},
		// Long enough that the sweep is mid-flight when the DELETE lands.
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v2/sweeps/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(60 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	if st.State != StateCanceled || st.Canceled == 0 {
		t.Fatalf("canceled sweep state %q (canceled %d)", st.State, st.Canceled)
	}

	// Cancelling a terminal sweep is a conflict, like jobs.
	dresp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("second DELETE: status %d, want 409", dresp.StatusCode)
	}
}

// TestManagerDrainsOnShutdown: Shutdown drains every admitted run to
// done, and refuses submissions after it began.
func TestManagerDrainsOnShutdown(t *testing.T) {
	srv := New(Options{Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		v := submitSim(t, ts, SimulationRequest{
			Policy: "dg", Workload: "2-ILP", Seed: uint64(i + 1),
			WarmupCycles: testWarmup, MeasureCycles: testMeasure,
		})
		ids = append(ids, v.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		var v JobView
		if resp := getJSON(t, ts, "/v1/simulations/"+id, &v); resp.StatusCode != http.StatusOK || v.State != StateDone {
			t.Fatalf("job %s not drained to done: status %d %+v", id, resp.StatusCode, v)
		}
	}
	resp, raw := postJSON(t, ts, "/v1/simulations", SimulationRequest{
		Policy: "dg", Workload: "2-ILP", Seed: 99,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), ErrShuttingDown.Error()) {
		t.Fatalf("submit after shutdown: status %d body %s", resp.StatusCode, raw)
	}
}
