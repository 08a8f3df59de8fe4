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
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
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

// testRun is the spec of a short run of policy on a named workload.
func testRun(policy, wl string) spec.RunSpec {
	return spec.RunSpec{
		Policy:       spec.Policy{Name: policy},
		Workload:     spec.Workload{Name: wl},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
}

// longRun is a run long enough to still be executing while a test
// probes it; servers running it need MaxCycles raised.
func longRun(policy, wl string) spec.RunSpec {
	rs := testRun(policy, wl)
	rs.WarmupCycles, rs.MeasureCycles = 200_000_000, 200_000_000
	return rs
}

// submitRun posts a spec to /v2/runs and decodes the acceptance.
func submitRun(t *testing.T, ts *httptest.Server, rs spec.RunSpec) RunAccepted {
	t.Helper()
	resp, raw := postJSON(t, ts, "/v2/runs", rs)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/runs: status %d body %s", resp.StatusCode, raw)
	}
	var v RunAccepted
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad run acceptance %q: %v", raw, err)
	}
	return v
}

// postSweep posts a sweep spec to /v2/sweeps and decodes the accepted
// status.
func postSweep(t *testing.T, ts *httptest.Server, ss spec.SweepSpec) SweepStatus {
	t.Helper()
	resp, raw := postJSON(t, ts, "/v2/sweeps", ss)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("bad sweep status %q: %v", raw, err)
	}
	return st
}

// pollSweep polls GET /v2/sweeps/{id} until the sweep leaves
// StateRunning or the deadline passes.
func pollSweep(t *testing.T, ts *httptest.Server, st SweepStatus) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	return st
}

// deleteStatus sends DELETE path and returns the status code.
func deleteStatus(t *testing.T, ts *httptest.Server, path string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// waitJob polls a job until it reaches one of the wanted states.
func waitJob(t *testing.T, ts *httptest.Server, id string, want ...string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var v JobView
		getJSON(t, ts, "/v2/runs/"+id, &v)
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

	// The catalog payloads, built here from the registries rather than
	// the handlers: the shapes clients decode.
	var workloads, benchmarks []map[string]any
	for _, w := range workload.Workloads() {
		workloads = append(workloads, map[string]any{
			"name": w.Name, "threads": w.Threads, "mix": w.Mix.String(), "benchmarks": w.Benchmarks,
		})
	}
	for _, name := range workload.Names() {
		p, err := workload.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		benchmarks = append(benchmarks, map[string]any{"name": name, "type": p.Type.String()})
	}
	var policies []map[string]any
	for _, name := range core.Policies() {
		params, err := core.PolicyParams(name)
		if err != nil {
			t.Fatal(err)
		}
		p := map[string]any{"name": name}
		if len(params) > 0 {
			p["params"] = params
		}
		policies = append(policies, p)
	}
	if n := [4]int{len(core.PaperPolicies()), len(workloads), len(benchmarks), len(config.Machines())}; n != [4]int{6, 12, 12, 3} {
		t.Fatalf("paper policies, workloads, benchmarks, machines = %v, want [6 12 12 3]", n)
	}
	cases := []struct {
		path string
		want any
	}{
		{"/v2/machines", map[string]any{"machines": config.Machines()}},
		{"/v2/workloads", map[string]any{"workloads": workloads}},
		{"/v2/benchmarks", map[string]any{"benchmarks": benchmarks}},
		{"/v2/policies", map[string]any{"policies": policies, "paper": core.PaperPolicies()}},
	}
	for _, tc := range cases {
		want, err := json.Marshal(tc.want)
		if err != nil {
			t.Fatal(err)
		}
		var got, wantV any
		if resp := getJSON(t, ts, tc.path, &got); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", tc.path, resp.StatusCode)
			continue
		}
		if err := json.Unmarshal(want, &wantV); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantV) {
			gotB, _ := json.Marshal(got)
			t.Errorf("GET %s payload\n got %s\nwant %s", tc.path, gotB, want)
		}
	}
}

// TestRetiredAPIRoutesAreGone: every route of the retired first API
// version answers 404; /v2 is the only HTTP API.
func TestRetiredAPIRoutesAreGone(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	const retired = "/v1"
	routes := []struct{ method, path string }{
		{http.MethodGet, "/policies"},
		{http.MethodGet, "/machines"},
		{http.MethodGet, "/workloads"},
		{http.MethodGet, "/benchmarks"},
		{http.MethodPost, "/simulations"},
		{http.MethodGet, "/simulations"},
		{http.MethodGet, "/simulations/sim-000001"},
		{http.MethodDelete, "/simulations/sim-000001"},
		{http.MethodPost, "/sweeps"},
		{http.MethodGet, "/sweeps/sweep-000001"},
		{http.MethodPost, "/traces"},
		{http.MethodGet, "/traces"},
		{http.MethodGet, "/traces/0123456789abcdef"},
	}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+retired+rt.path, strings.NewReader(`{"policy":"dwarn","workload":"2-MIX"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s%s: status %d, want 404", rt.method, retired, rt.path, resp.StatusCode)
		}
	}
}

func TestSubmitPollResult(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	v := submitRun(t, ts, testRun("dwarn", "2-MIX"))
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
	req := testRun("icount", "2-ILP")
	req.Seed = 7
	first := waitJob(t, ts, submitRun(t, ts, req).ID, StateDone)
	if first.Cached {
		t.Fatal("first submission reported cached")
	}
	hitsBefore := srv.CacheStats().Hits

	second := submitRun(t, ts, req)
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
	req := testRun("dwarn", "2-MIX")
	req.Baselines = true
	done := waitJob(t, ts, submitRun(t, ts, req).ID, StateDone)
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

// TestBaselinesSweepCellMatchesRunSummary: a baselines sweep cell's
// hmean and weighted_speedup are exactly the summary of a run with the
// same spec, here computed by a separate server.
func TestBaselinesSweepCellMatchesRunSummary(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	st := pollSweep(t, ts, postSweep(t, ts, spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}, {Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}},
		Baselines:    true,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}))
	if st.State != StateDone || len(st.Cells) != 2 {
		t.Fatalf("sweep %s with %d cells", st.State, len(st.Cells))
	}
	_, runTS := newTestServer(t, Options{Workers: 4})
	for _, cell := range st.Cells {
		if cell.Hmean == nil || cell.WeightedSpeedup == nil {
			t.Fatalf("cell %s: no summary", cell.Policy)
		}
		req := testRun(cell.Policy, cell.Workload)
		req.Baselines = true
		done := waitJob(t, runTS, submitRun(t, runTS, req).ID, StateDone)
		sr, err := decodeSim(done.Result)
		if err != nil {
			t.Fatal(err)
		}
		if sr.Summary == nil || *cell.Hmean != sr.Summary.Hmean || *cell.WeightedSpeedup != sr.Summary.WeightedSpeedup {
			t.Errorf("cell %s: hmean %v wspeedup %v, run summary %+v", cell.Policy, *cell.Hmean, *cell.WeightedSpeedup, sr.Summary)
		}
	}
}

func TestSweepFanOutMatchesDirectRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	st := postSweep(t, ts, spec.SweepSpec{
		Workloads:    []spec.Workload{{Name: "4-MIX"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if st.Total != 6 {
		t.Fatalf("sweep over paper policies × 4-MIX has %d cells, want 6", st.Total)
	}

	st = pollSweep(t, ts, st)
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
	v := submitRun(t, ts, longRun("flush", "8-MEM"))
	waitJob(t, ts, v.ID, StateRunning)

	if code := deleteStatus(t, ts, "/v2/runs/"+v.ID); code != http.StatusOK {
		t.Fatalf("DELETE status %d", code)
	}

	got := waitJob(t, ts, v.ID, StateCanceled)
	if got.Result != nil {
		t.Fatal("canceled job has a result")
	}

	// The worker must be free again: a short job completes.
	short := submitRun(t, ts, testRun("icount", "2-ILP"))
	waitJob(t, ts, short.ID, StateDone)
}

func TestCancelQueuedJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000})
	long := submitRun(t, ts, longRun("icount", "8-MEM"))
	waitJob(t, ts, long.ID, StateRunning)

	queued := submitRun(t, ts, testRun("stall", "2-MEM"))
	for _, id := range []string{queued.ID, long.ID} {
		if code := deleteStatus(t, ts, "/v2/runs/"+id); code != http.StatusOK {
			t.Fatalf("DELETE %s status %d", id, code)
		}
	}
	waitJob(t, ts, queued.ID, StateCanceled)
	waitJob(t, ts, long.ID, StateCanceled)
}

func TestQueueFullRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxCycles: 500_000_000})
	long := longRun("icount", "8-MEM")
	running := submitRun(t, ts, long)
	waitJob(t, ts, running.ID, StateRunning)

	// Occupies the single queue slot. A different seed avoids the
	// single-flight/cache identity of the running job.
	queued := long
	queued.Seed = 2
	submitRun(t, ts, queued)

	rejected := long
	rejected.Seed = 3
	resp, raw := postJSON(t, ts, "/v2/runs", rejected)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submit: status %d body %s", resp.StatusCode, raw)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	dwarn := spec.Policy{Name: "dwarn"}
	cases := []spec.RunSpec{
		{},              // no policy
		{Policy: dwarn}, // no workload
		{Policy: spec.Policy{Name: "nonesuch"}, Workload: spec.Workload{Name: "4-MIX"}}, // unknown policy
		{Policy: dwarn, Workload: spec.Workload{Name: "nonesuch"}},
		{Policy: dwarn, Workload: spec.Workload{Name: "4-MIX", Benchmarks: []string{"gzip"}}},          // both
		{Policy: dwarn, Workload: spec.Workload{Name: "8-MIX"}, Machine: &spec.Machine{Name: "small"}}, // too many threads
		{Policy: dwarn, Workload: spec.Workload{Name: "4-MIX"}, MeasureCycles: 100_000_000},            // over cap
		{Policy: dwarn, Workload: spec.Workload{Benchmarks: []string{"nonesuch"}}},
	}
	for i, rs := range cases {
		resp, raw := postJSON(t, ts, "/v2/runs", rs)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d body %s", i, resp.StatusCode, raw)
		}
	}
	if resp := getJSON(t, ts, "/v2/runs/nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/v2/sweeps/nonesuch", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing sweep: status %d", resp.StatusCode)
	}
}

func TestCustomBenchmarksWorkload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := testRun("dwarn", "")
	req.Workload = spec.Workload{Benchmarks: []string{"gzip", "mcf"}}
	done := waitJob(t, ts, submitRun(t, ts, req).ID, StateDone)
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
	req := testRun("pdg", "2-MEM")
	req.Seed = 11
	const clients = 16
	results := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v2/runs", "application/json", bytes.NewReader(b))
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
				getJSON(t, ts, "/v2/runs/"+v.ID, &v)
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
	req := testRun("icount", "2-ILP")
	waitJob(t, ts, submitRun(t, ts, req).ID, StateDone)
	var last string
	for i := 0; i < 4; i++ {
		last = submitRun(t, ts, req).ID // served from the store: terminal at submit
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v2/runs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("retained %d records, want 2", len(list.Jobs))
	}
	if list.Jobs[len(list.Jobs)-1].ID != last {
		t.Fatalf("newest record %s pruned (kept %s)", last, list.Jobs[len(list.Jobs)-1].ID)
	}
	if resp := getJSON(t, ts, "/v2/runs/sim-000001", nil); resp.StatusCode != http.StatusNotFound {
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

	st := pollSweep(t, ts, postSweep(t, ts, spec.SweepSpec{
		Workloads:    []spec.Workload{{Name: "4-MIX"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}))
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
	long := spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "icount"}},
		Workloads: []spec.Workload{{Name: "8-MEM"}},
		// Long enough to still be running while the rest submit.
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	}
	var ids []string
	for i := 0; i < 2; i++ {
		req := long
		req.Seeds = []uint64{uint64(i + 1)} // distinct cells so nothing dedups
		ids = append(ids, postSweep(t, ts, req).ID)
	}

	over := long
	over.Seeds = []uint64{99}
	resp, raw := postJSON(t, ts, "/v2/sweeps", over)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap sweep: status %d body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "too many active sweeps") {
		t.Fatalf("over-cap error body %s", raw)
	}

	// Free a slot and the same submission is admitted.
	deleteStatus(t, ts, "/v2/sweeps/"+ids[0])
	pollSweep(t, ts, SweepStatus{ID: ids[0], State: StateRunning})
	last := postSweep(t, ts, over)
	// Drain: cancel everything still running so cleanup is fast.
	for _, id := range append(ids[1:], last.ID) {
		deleteStatus(t, ts, "/v2/sweeps/"+id)
	}
}

// TestSweepCancelMidFlight: DELETE /v2/sweeps/{id} stops a running
// sweep cooperatively — running cells observe their context, queued
// cells never start, and the record stays observable as canceled.
func TestSweepCancelMidFlight(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxCycles: 500_000_000})
	st := postSweep(t, ts, spec.SweepSpec{
		Workloads: []spec.Workload{{Name: "8-MEM"}},
		// Long enough that the sweep is mid-flight when the DELETE lands.
		WarmupCycles: 200_000_000, MeasureCycles: 200_000_000,
	})

	if code := deleteStatus(t, ts, "/v2/sweeps/"+st.ID); code != http.StatusOK {
		t.Fatalf("DELETE: status %d", code)
	}

	st = pollSweep(t, ts, st)
	if st.State != StateCanceled || st.Canceled == 0 {
		t.Fatalf("canceled sweep state %q (canceled %d)", st.State, st.Canceled)
	}

	// Cancelling a terminal sweep is a conflict, like jobs.
	if code := deleteStatus(t, ts, "/v2/sweeps/"+st.ID); code != http.StatusConflict {
		t.Fatalf("second DELETE: status %d, want 409", code)
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
		rs := testRun("dg", "2-ILP")
		rs.Seed = uint64(i + 1)
		ids = append(ids, submitRun(t, ts, rs).ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		var v JobView
		if resp := getJSON(t, ts, "/v2/runs/"+id, &v); resp.StatusCode != http.StatusOK || v.State != StateDone {
			t.Fatalf("job %s not drained to done: status %d %+v", id, resp.StatusCode, v)
		}
	}
	late := testRun("dg", "2-ILP")
	late.Seed = 99
	resp, raw := postJSON(t, ts, "/v2/runs", late)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), ErrShuttingDown.Error()) {
		t.Fatalf("submit after shutdown: status %d body %s", resp.StatusCode, raw)
	}
}
