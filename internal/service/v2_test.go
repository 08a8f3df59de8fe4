package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/spec"
)

// submitV2Run posts a spec to /v2/runs and decodes the acceptance.
func submitV2Run(t *testing.T, ts *httptest.Server, rs spec.RunSpec) RunAccepted {
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

// TestV2PoliciesCatalog: the v2 catalog exposes the registry's declared
// parameters, the data a client needs to build threshold sweeps.
func TestV2PoliciesCatalog(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	var out struct {
		Policies []struct {
			Name   string           `json:"name"`
			Params []core.ParamSpec `json:"params"`
		} `json:"policies"`
		Paper []string `json:"paper"`
	}
	getJSON(t, ts, "/v2/policies", &out)
	if len(out.Paper) != 6 {
		t.Fatalf("want 6 paper policies, got %v", out.Paper)
	}
	byName := map[string][]core.ParamSpec{}
	for _, p := range out.Policies {
		byName[p.Name] = p.Params
	}
	dwarn := byName["dwarn"]
	if len(dwarn) != 1 || dwarn[0].Name != "warn" || dwarn[0].Default != 1 {
		t.Fatalf("dwarn params %+v", dwarn)
	}
	if len(byName["icount"]) != 0 {
		t.Fatalf("icount declares params %+v", byName["icount"])
	}
}

// TestV2RunAdapterEquivalence: every legal v1 request maps to a spec
// with an identical fingerprint — proven end to end by cache hits: the
// v2 spelling of a completed v1 request must be served from the cache
// at submit time, and vice versa.
func TestV2RunAdapterEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	cases := []struct {
		name string
		v1   SimulationRequest
		v2   spec.RunSpec
	}{
		{
			name: "named workload",
			v1: SimulationRequest{Policy: "dwarn", Workload: "2-MIX",
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
			v2: spec.RunSpec{Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Name: "2-MIX"},
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
		},
		{
			name: "custom benchmarks, explicit defaults",
			v1: SimulationRequest{Policy: "stall", Benchmarks: []string{"gzip", "mcf"},
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
			v2: spec.RunSpec{
				Version:  spec.Version,
				Machine:  &spec.Machine{Name: "baseline"},
				Policy:   spec.Policy{Name: "stall", Params: map[string]int64{"threshold": 15}},
				Workload: spec.Workload{Benchmarks: []string{"gzip", "mcf"}},
				Seed:     42, WarmupCycles: testWarmup, MeasureCycles: testMeasure,
			},
		},
		{
			name: "small machine, seed",
			v1: SimulationRequest{Machine: "small", Policy: "icount", Workload: "2-MEM", Seed: 9,
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
			v2: spec.RunSpec{Machine: &spec.Machine{Name: "small"},
				Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MEM"}, Seed: 9,
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := waitJob(t, ts, submitSim(t, ts, tc.v1).ID, StateDone)
			sr, err := decodeSim(first.Result)
			if err != nil {
				t.Fatal(err)
			}

			v := submitV2Run(t, ts, tc.v2)
			if v.Fingerprint != sr.Fingerprint {
				t.Fatalf("v2 fingerprint %s, v1 %s", v.Fingerprint, sr.Fingerprint)
			}
			if v.State != StateDone || !v.Cached {
				t.Fatalf("v2 spelling not served from the v1 cache entry: state %q cached %v", v.State, v.Cached)
			}
		})
	}
}

// TestV1ServedFromV2CacheEntry: the adapter equivalence holds in the
// other direction too.
func TestV1ServedFromV2CacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	rs := spec.RunSpec{Policy: spec.Policy{Name: "pdg"}, Workload: spec.Workload{Name: "2-ILP"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure}
	v := submitV2Run(t, ts, rs)
	waitJob(t, ts, v.ID, StateDone)

	again := submitSim(t, ts, SimulationRequest{Policy: "pdg", Workload: "2-ILP",
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	if again.State != StateDone || !again.Cached {
		t.Fatalf("v1 spelling not served from the v2 cache entry: state %q cached %v", again.State, again.Cached)
	}
}

// TestV2RunInlineOverrides: a no-op override shares the named machine's
// identity; a real override is a different machine.
func TestV2RunInlineOverrides(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	base := submitV2Run(t, ts, spec.RunSpec{
		Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	waitJob(t, ts, base.ID, StateDone)

	noop := submitV2Run(t, ts, spec.RunSpec{
		Machine: &spec.Machine{Name: "baseline", Overrides: []byte(`{"MemLatency": 100}`)},
		Policy:  spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	if noop.Fingerprint != base.Fingerprint || !noop.Cached {
		t.Fatalf("no-op override did not share the baseline identity (cached %v)", noop.Cached)
	}

	real := submitV2Run(t, ts, spec.RunSpec{
		Machine: &spec.Machine{Name: "baseline", Overrides: []byte(`{"MemLatency": 200}`)},
		Policy:  spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	if real.Fingerprint == base.Fingerprint {
		t.Fatal("a real override shares the baseline fingerprint")
	}
	done := waitJob(t, ts, real.ID, StateDone)
	sr, err := decodeSim(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Result.Machine != "baseline" || sr.Result.Throughput <= 0 {
		t.Fatalf("override run result %+v", sr.Result)
	}
}

// TestV2DWarnWarnThresholdSweep is the paper's §5-style sensitivity
// grid over the wire: 3 warn thresholds × 2 workloads, per-cell
// fingerprints distinct per threshold, repeats served from cache.
func TestV2DWarnWarnThresholdSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "dwarn", Params: map[string][]int64{"warn": {1, 2, 4}}}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 6 {
		t.Fatalf("sweep has %d cells, want 3 thresholds × 2 workloads = 6", st.Total)
	}

	fps := map[string]bool{}
	byPolicy := map[string]int{}
	for _, cell := range st.Cells {
		if cell.Fingerprint == "" {
			t.Fatalf("cell %s/%s missing fingerprint", cell.Policy, cell.Workload)
		}
		fps[cell.Fingerprint] = true
		byPolicy[cell.Policy]++
	}
	if len(fps) != 6 {
		t.Fatalf("%d distinct fingerprints, want 6 (thresholds must not collide)", len(fps))
	}
	for _, id := range []string{"dwarn", "dwarn(warn=2)", "dwarn(warn=4)"} {
		if byPolicy[id] != 2 {
			t.Fatalf("policy ids %v, want 2 cells each of dwarn, dwarn(warn=2), dwarn(warn=4)", byPolicy)
		}
	}

	deadline := time.Now().Add(120 * time.Second)
	for st.State == StateRunning && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &st)
	}
	if st.State != StateDone {
		t.Fatalf("sweep finished in state %q (%d/%d done)", st.State, st.Done, st.Total)
	}

	// Identical resubmission: every cell completes at submit time from
	// the cache.
	resp, raw = postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var again SweepStatus
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.Done != again.Total || again.State != StateDone {
		t.Fatalf("repeat sweep not fully served from cache: %d/%d done at submit (state %s)", again.Done, again.Total, again.State)
	}
	for _, cell := range again.Cells {
		if !cell.Cached || cell.Throughput == nil {
			t.Fatalf("repeat cell %s/%s not marked cached (%+v)", cell.Policy, cell.Workload, cell)
		}
	}
}

// TestV2SweepSSEStream consumes GET /v2/sweeps/{id}/events to
// completion: every cell's terminal transition arrives as a "cell"
// frame, and the final "end" frame carries the finished status — the
// no-polling path to a sweep's progress.
func TestV2SweepSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}, {Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}

	es, err := http.Get(ts.URL + "/v2/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es.Body.Close()
	if es.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", es.StatusCode)
	}
	if ct := es.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	terminalCells := map[int]string{}
	var final *SweepStatus
	var event string
	sc := bufio.NewScanner(es.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "cell":
				var ev SweepEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad cell frame %q: %v", data, err)
				}
				if ev.State != exec.CellStarted {
					terminalCells[ev.Index] = ev.State
					if ev.Throughput == nil && ev.Error == "" {
						t.Fatalf("terminal frame without throughput: %+v", ev)
					}
				}
			case "end":
				final = &SweepStatus{}
				if err := json.Unmarshal([]byte(data), final); err != nil {
					t.Fatalf("bad end frame %q: %v", data, err)
				}
			default:
				t.Fatalf("unknown SSE event %q", event)
			}
		}
	}
	// The server closes the stream after the end frame; the scanner
	// simply runs out of input.
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if final == nil {
		t.Fatal("stream closed without an end frame")
	}
	if final.State != StateDone || final.Done != 4 {
		t.Fatalf("end frame %+v", final)
	}
	if len(terminalCells) != 4 {
		t.Fatalf("saw terminal frames for %d cells, want 4 (%v)", len(terminalCells), terminalCells)
	}

	// A second consumer after completion replays the full history and
	// ends immediately.
	es2, err := http.Get(ts.URL + "/v2/sweeps/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer es2.Body.Close()
	replay, err := io.ReadAll(es2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(replay), "event: end") {
		t.Fatalf("replay stream missing end frame: %s", replay)
	}
}

// TestV2SweepCellBound: a hostile grid is rejected with a 400 before
// any job exists.
func TestV2SweepCellBound(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxSweepCells: 4})
	sweep := spec.SweepSpec{
		Policies:  []spec.PolicyAxis{{Name: "dwarn", Params: map[string][]int64{"warn": {1, 2, 4}}}},
		Workloads: []spec.Workload{{Name: "2-MIX"}, {Name: "2-MEM"}},
	}
	resp, raw := postJSON(t, ts, "/v2/sweeps", sweep)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep: status %d body %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "cells") {
		t.Fatalf("error does not explain the cell bound: %s", raw)
	}
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, ts, "/v2/runs", &list)
	var health struct {
		Sweeps int `json:"sweeps"`
	}
	getJSON(t, ts, "/healthz", &health)
	if len(list.Jobs) != 0 || health.Sweeps != 0 {
		t.Fatalf("rejected sweep created %d runs and %d sweeps", len(list.Jobs), health.Sweeps)
	}

	// The same bound applies to v1 sweeps (machines can be repeated to
	// inflate the product).
	resp, raw = postJSON(t, ts, "/v1/sweeps", SweepRequest{
		Machines:  []string{"baseline", "baseline", "baseline"},
		Workloads: []string{"2-MIX"},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized v1 sweep: status %d body %s", resp.StatusCode, raw)
	}
}

// TestV2SeedReplicationSweep: the seeds axis fans out one cell per
// seed, each with its own identity.
func TestV2SeedReplicationSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	resp, raw := postJSON(t, ts, "/v2/sweeps", spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}},
		Workloads:    []spec.Workload{{Name: "2-ILP"}},
		Seeds:        []uint64{1, 2, 3},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d body %s", resp.StatusCode, raw)
	}
	var st SweepStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Total != 3 {
		t.Fatalf("%d cells, want 3 seeds", st.Total)
	}
	seeds := map[uint64]bool{}
	fps := map[string]bool{}
	for _, cell := range st.Cells {
		seeds[cell.Seed] = true
		fps[cell.Fingerprint] = true
	}
	if len(seeds) != 3 || len(fps) != 3 {
		t.Fatalf("seeds %v fingerprints %d, want 3 distinct each", seeds, len(fps))
	}
}

// TestV2TraceRunSharesV1Identity: a v2 spec replaying an uploaded trace
// by id prefix shares the cache entry of the v1 request that ran it by
// full id.
func TestV2TraceRunSharesV1Identity(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	raw := recordTestTrace(t, "2-MIX", 42, 60000)
	tv, _ := uploadTrace(t, ts, raw)

	first := waitJob(t, ts, submitSim(t, ts, SimulationRequest{
		Policy: "dwarn", Trace: tv.ID,
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}).ID, StateDone)
	sr, err := decodeSim(first.Result)
	if err != nil {
		t.Fatal(err)
	}

	v := submitV2Run(t, ts, spec.RunSpec{
		Policy:       spec.Policy{Name: "dwarn"},
		Workload:     spec.Workload{Trace: tv.ID[:12]},
		Seed:         999, // replay ignores the seed; identity must not change
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if v.Fingerprint != sr.Fingerprint {
		t.Fatalf("v2 trace fingerprint %s, v1 %s", v.Fingerprint, sr.Fingerprint)
	}
	if !v.Cached {
		t.Fatal("v2 trace run not served from the v1 cache entry")
	}
}

func TestV2RunValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	bad := []spec.RunSpec{
		{Workload: spec.Workload{Name: "4-MIX"}},                                        // no policy
		{Policy: spec.Policy{Name: "nonesuch"}, Workload: spec.Workload{Name: "4-MIX"}}, // unknown policy
		{Policy: spec.Policy{Name: "dwarn", Params: map[string]int64{"warn": 0}}, // out of range
			Workload: spec.Workload{Name: "4-MIX"}},
		{Policy: spec.Policy{Name: "dwarn", Params: map[string]int64{"nope": 3}}, // unknown param
			Workload: spec.Workload{Name: "4-MIX"}},
		{Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Name: "4-MIX", Solo: "gzip"}}, // two workloads
		{Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Trace: "deadbeef00"}},         // unknown trace
		{Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Name: "4-MIX"}, Version: 99},  // bad version
		{Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Name: "4-MIX"}, // over cycle cap
			MeasureCycles: 100_000_000},
		{Machine: &spec.Machine{Name: "baseline", Overrides: []byte(`{"NoSuchField": 1}`)}, // bad override
			Policy: spec.Policy{Name: "dwarn"}, Workload: spec.Workload{Name: "4-MIX"}},
	}
	for i, rs := range bad {
		resp, raw := postJSON(t, ts, "/v2/runs", rs)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status %d body %s", i, resp.StatusCode, raw)
		}
	}

	// Unknown body fields are rejected (strict decoding).
	resp, err := http.Post(ts.URL+"/v2/runs", "application/json",
		strings.NewReader(`{"policy": {"name": "dwarn"}, "workload": {"name": "4-MIX"}, "bogus": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field accepted: status %d", resp.StatusCode)
	}
}

// TestV2JobSharedIDSpace: a job submitted on v2 is pollable and
// cancellable through v1 paths and vice versa.
func TestV2JobSharedIDSpace(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	v := submitV2Run(t, ts, spec.RunSpec{
		Policy: spec.Policy{Name: "dg"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	waitJob(t, ts, v.ID, StateDone) // waitJob polls /v1/simulations/{id}

	var viaV2 JobView
	if resp := getJSON(t, ts, "/v2/runs/"+v.ID, &viaV2); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/runs/%s: status %d", v.ID, resp.StatusCode)
	}
	if viaV2.State != StateDone {
		t.Fatalf("v2 view state %q", viaV2.State)
	}
}
