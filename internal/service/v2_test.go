package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/exec"
	"dwarn/internal/spec"
)

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

// TestV2RunAdapterEquivalence: spec canonicalization adapts every
// spelling of one run to one identity — proven end to end by cache
// hits: once the minimal spelling has run, an explicit-defaults
// spelling, an inline machine config, and the canonical form the
// server echoed are all served from its cache entry at submit time.
func TestV2RunAdapterEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	stall := testRun("stall", "")
	stall.Workload = spec.Workload{Benchmarks: []string{"gzip", "mcf"}}
	small := testRun("icount", "2-MEM")
	small.Machine, small.Seed = &spec.Machine{Name: "small"}, 9
	cases := []struct {
		name string
		min  spec.RunSpec
		// alt respells min; nil means the canonical form echoed by the
		// server for min.
		alt *spec.RunSpec
	}{
		{name: "named workload", min: testRun("dwarn", "2-MIX")},
		{
			name: "custom benchmarks, explicit defaults",
			min:  stall,
			alt: &spec.RunSpec{
				Version:  spec.Version,
				Machine:  &spec.Machine{Name: "baseline"},
				Policy:   spec.Policy{Name: "stall", Params: map[string]int64{"threshold": 15}},
				Workload: spec.Workload{Benchmarks: []string{"gzip", "mcf"}},
				Seed:     42, WarmupCycles: testWarmup, MeasureCycles: testMeasure,
			},
		},
		{
			name: "small machine, seed",
			min:  small,
			alt: &spec.RunSpec{Machine: &spec.Machine{Config: config.Small()},
				Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MEM"}, Seed: 9,
				WarmupCycles: testWarmup, MeasureCycles: testMeasure},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			first := submitRun(t, ts, tc.min)
			waitJob(t, ts, first.ID, StateDone)
			alt := tc.alt
			if alt == nil {
				alt = first.Canonical
			}
			v := submitRun(t, ts, *alt)
			if v.Fingerprint != first.Fingerprint {
				t.Fatalf("respelled fingerprint %s, minimal %s", v.Fingerprint, first.Fingerprint)
			}
			if v.State != StateDone || !v.Cached {
				t.Fatalf("respelled run not served from the cache entry: state %q cached %v", v.State, v.Cached)
			}
		})
	}
}

// TestV2RunInlineOverrides: a no-op override shares the named machine's
// identity; a real override is a different machine.
func TestV2RunInlineOverrides(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	base := submitRun(t, ts, spec.RunSpec{
		Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	waitJob(t, ts, base.ID, StateDone)

	noop := submitRun(t, ts, spec.RunSpec{
		Machine: &spec.Machine{Name: "baseline", Overrides: []byte(`{"MemLatency": 100}`)},
		Policy:  spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure})
	if noop.Fingerprint != base.Fingerprint || !noop.Cached {
		t.Fatalf("no-op override did not share the baseline identity (cached %v)", noop.Cached)
	}

	real := submitRun(t, ts, spec.RunSpec{
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

	// Repeating a machine inflates the product too.
	resp, raw = postJSON(t, ts, "/v2/sweeps", spec.SweepSpec{
		Machines:  []spec.Machine{{Name: "baseline"}, {Name: "baseline"}, {Name: "baseline"}},
		Workloads: []spec.Workload{{Name: "2-MIX"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized sweep with repeated machines: status %d body %s", resp.StatusCode, raw)
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

// TestV2TraceRunSharesIdentityAcrossRefs: a spec replaying an
// uploaded trace by id prefix (and a seed replay ignores) shares the
// cache entry of the run that replayed it by full id.
func TestV2TraceRunSharesIdentityAcrossRefs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	raw := recordTestTrace(t, "2-MIX", 42, 60000)
	tv, _ := uploadTrace(t, ts, raw)

	first := submitRun(t, ts, traceRun("dwarn", tv.ID))
	waitJob(t, ts, first.ID, StateDone)

	byPrefix := traceRun("dwarn", tv.ID[:12])
	byPrefix.Seed = 999 // replay ignores the seed; identity must not change
	v := submitRun(t, ts, byPrefix)
	if v.Fingerprint != first.Fingerprint {
		t.Fatalf("prefix trace fingerprint %s, full id %s", v.Fingerprint, first.Fingerprint)
	}
	if !v.Cached {
		t.Fatal("prefix trace run not served from the full-id cache entry")
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
