package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dwarn/internal/isa"
	"dwarn/internal/spec"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// recordTestTrace builds a small trace of wlName in memory.
func recordTestTrace(t *testing.T, wlName string, seed uint64, uops int) []byte {
	t.Helper()
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := wl.Generators(seed)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(wl.Name, seed)
	var u isa.Uop
	for _, s := range streams {
		w.Record(s)
		for i := 0; i < uops; i++ {
			s.Next(&u)
		}
		s.Stop()
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceRun is the spec of a short run of policy replaying trace id.
func traceRun(policy, id string) spec.RunSpec {
	return spec.RunSpec{
		Policy:       spec.Policy{Name: policy},
		Workload:     spec.Workload{Trace: id},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
}

func uploadTrace(t *testing.T, ts *httptest.Server, raw []byte) (TraceView, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v2/traces", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var v TraceView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("bad trace view %q: %v", body, err)
		}
	}
	return v, resp
}

func TestTraceUploadAndInfo(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	raw := recordTestTrace(t, "2-MIX", 42, 30000)

	v, resp := uploadTrace(t, ts, raw)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload status %d", resp.StatusCode)
	}
	if v.ID == "" || v.Threads != 2 || v.Workload != "2-MIX" || v.Uops != 60000 {
		t.Fatalf("trace view %+v", v)
	}

	// Idempotent re-upload: same id, 200.
	v2, resp2 := uploadTrace(t, ts, raw)
	if resp2.StatusCode != http.StatusOK || v2.ID != v.ID {
		t.Fatalf("re-upload status %d id %s (want 200, %s)", resp2.StatusCode, v2.ID, v.ID)
	}

	var list struct {
		Traces []TraceView `json:"traces"`
	}
	getJSON(t, ts, "/v2/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0].ID != v.ID {
		t.Fatalf("trace list %+v", list)
	}

	var one TraceView
	if resp := getJSON(t, ts, "/v2/traces/"+v.ID[:12], &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET by prefix status %d", resp.StatusCode)
	}
	if one.ID != v.ID {
		t.Fatalf("prefix lookup got %s", one.ID)
	}
}

func TestTraceUploadRejectsCorrupt(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	raw := recordTestTrace(t, "2-ILP", 5, 2000)
	raw[len(raw)/2] ^= 0x40
	if _, resp := uploadTrace(t, ts, raw); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status %d, want 400", resp.StatusCode)
	}
	if _, resp := uploadTrace(t, ts, []byte("not a trace")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("junk upload status %d, want 400", resp.StatusCode)
	}
}

// TestTraceSimulationMatchesSynthetic uploads a trace and runs it via
// the API: the result must match the synthetic run of the same
// workload/seed exactly, and repeat submissions must hit the cache.
func TestTraceSimulationMatchesSynthetic(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	raw := recordTestTrace(t, "2-MIX", 42, 60000)
	v, _ := uploadTrace(t, ts, raw)

	synth := testRun("dwarn", "2-MIX")
	synth.Seed = 42
	synthetic := submitRun(t, ts, synth)
	traced := submitRun(t, ts, traceRun("dwarn", v.ID))
	sDone := waitJob(t, ts, synthetic.ID, StateDone)
	tDone := waitJob(t, ts, traced.ID, StateDone)

	sr, err := decodeSim(sDone.Result)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := decodeSim(tDone.Result)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Fingerprint == tr.Fingerprint {
		t.Fatal("trace and synthetic runs share a fingerprint")
	}
	if tr.Result.Throughput != sr.Result.Throughput {
		t.Fatalf("trace throughput %v, synthetic %v", tr.Result.Throughput, sr.Result.Throughput)
	}
	for i := range sr.Result.Threads {
		if tr.Result.Threads[i].IPC != sr.Result.Threads[i].IPC {
			t.Fatalf("t%d IPC %v vs %v", i, tr.Result.Threads[i].IPC, sr.Result.Threads[i].IPC)
		}
	}

	// Identical repeat: served from cache.
	again := submitRun(t, ts, traceRun("dwarn", v.ID))
	if done := waitJob(t, ts, again.ID, StateDone); !done.Cached {
		t.Fatal("repeat trace run not served from cache")
	}
}

func TestTraceSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4})
	raw := recordTestTrace(t, "2-MEM", 7, 60000)
	v, _ := uploadTrace(t, ts, raw)

	st := postSweep(t, ts, spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "icount"}, {Name: "dwarn"}},
		Workloads:    []spec.Workload{{Trace: v.ID}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if st.Total != 2 {
		t.Fatalf("sweep total %d, want 2", st.Total)
	}
	st = pollSweep(t, ts, st)
	if st.State != StateDone {
		t.Fatalf("trace sweep finished in state %q (%d/%d done)", st.State, st.Done, st.Total)
	}
	for _, cell := range st.Cells {
		if cell.Trace != v.ID {
			t.Fatalf("cell trace %q", cell.Trace)
		}
		if cell.Throughput == nil || *cell.Throughput <= 0 {
			t.Fatalf("cell %s/%s missing throughput", cell.Machine, cell.Policy)
		}
		// The sweep cell landed in the shared cache: a direct run of the
		// same spec completes at submission time.
		again := submitRun(t, ts, traceRun(cell.Policy, v.ID))
		done := waitJob(t, ts, again.ID, StateDone)
		if !done.Cached {
			t.Fatalf("cell %s not shared with the run cache", cell.Policy)
		}
		sr, err := decodeSim(done.Result)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Result.Threads) != 2 || sr.Result.Throughput != *cell.Throughput {
			t.Fatalf("cell %s/%s result mismatch with cache", cell.Machine, cell.Policy)
		}
	}
}

func TestTraceRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	raw := recordTestTrace(t, "2-ILP", 3, 2000)
	v, _ := uploadTrace(t, ts, raw)

	withWorkload := traceRun("dwarn", v.ID)
	withWorkload.Workload.Name = "2-MIX"
	withBenchmarks := traceRun("dwarn", v.ID)
	withBenchmarks.Workload.Benchmarks = []string{"gzip"}
	withBaselines := traceRun("dwarn", v.ID)
	withBaselines.Baselines = true
	bad := []spec.RunSpec{
		traceRun("dwarn", "deadbeef00"), // unknown trace
		withWorkload,                    // both set
		withBenchmarks,                  // both set
		withBaselines,                   // baselines unsupported
		traceRun("nope", v.ID),          // bad policy
	}
	for i, rs := range bad {
		if resp, body := postJSON(t, ts, "/v2/runs", rs); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d accepted: status %d body %s", i, resp.StatusCode, body)
		}
	}

	// A sweep whose workload sets a trace and a name must be rejected.
	if resp, _ := postJSON(t, ts, "/v2/sweeps", spec.SweepSpec{
		Workloads: []spec.Workload{{Name: "2-MIX", Trace: v.ID}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("sweep with both workloads and trace accepted: %d", resp.StatusCode)
	}

	// A 404 for info on an unknown trace.
	if resp := getJSON(t, ts, "/v2/traces/0000000000000000", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace info status %d", resp.StatusCode)
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(2, 1<<30)
	mk := func(seed uint64) *trace.Trace {
		raw := recordTestTrace(t, "2-ILP", seed, 500)
		tr, err := trace.Read(bytes.NewReader(raw), 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b, c := mk(1), mk(2), mk(3)
	s.Add(a, a.PayloadBytes())
	s.Add(b, b.PayloadBytes())
	if _, err := s.Get(a.Digest); err != nil {
		t.Fatal("a evicted too early")
	}
	// a is now most-recently used; adding c evicts b.
	s.Add(c, c.PayloadBytes())
	if _, err := s.Get(b.Digest); err == nil {
		t.Fatal("b survived eviction")
	}
	if _, err := s.Get(a.Digest); err != nil {
		t.Fatal("a lost")
	}
	if _, err := s.Get(c.Digest); err != nil {
		t.Fatal("c lost")
	}
	if s.Len() != 2 {
		t.Fatalf("len %d", s.Len())
	}
}

// TestTraceViewIsTheResolvedEntry: the store hands back the view of the
// entry it resolved, so an eviction right after the lookup cannot turn
// the answer into another trace's view or a zero one.
func TestTraceViewIsTheResolvedEntry(t *testing.T) {
	s := NewTraceStore(1, 1<<30)
	mk := func(seed uint64) *trace.Trace {
		tr, err := trace.Read(bytes.NewReader(recordTestTrace(t, "2-ILP", seed, 500)), 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(1), mk(2)
	s.Add(a, a.PayloadBytes())
	v, err := s.Get(a.Digest[:12])
	if err != nil {
		t.Fatal(err)
	}
	if added := s.Add(b, b.PayloadBytes()); added.ID != b.Digest || added.Uops != b.Uops() {
		t.Fatalf("Add returned %+v, want b's view", added)
	}
	if _, err := s.Get(a.Digest); err == nil {
		t.Fatal("a survived eviction")
	}
	if v.ID != a.Digest || v.Uops != a.Uops() || v.Bytes != a.PayloadBytes() || v.Threads != len(a.Threads) {
		t.Fatalf("view of a after its eviction = %+v", v)
	}
}

// TestTraceHandlersUnderEviction: with room for one trace, two clients
// upload and fetch different traces concurrently, evicting each other's
// entry between every lookup and response. Every 200/201 must carry the
// view of the trace that was asked about.
func TestTraceHandlersUnderEviction(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxTraces: 1})
	var wg sync.WaitGroup
	for seed := uint64(1); seed <= 2; seed++ {
		raw := recordTestTrace(t, "2-ILP", seed, 500)
		tr, err := trace.Read(bytes.NewReader(raw), 0)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func(resp *http.Response, err error) {
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var v TraceView
				if resp.StatusCode == http.StatusNotFound {
					return // evicted before the lookup: a correct answer
				}
				if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID != tr.Digest || v.Uops != tr.Uops() {
					t.Errorf("status %d served view %+v (err %v) for trace %s", resp.StatusCode, v, err, tr.Digest)
				}
			}
			for i := 0; i < 40; i++ {
				check(http.Post(ts.URL+"/v2/traces", "application/octet-stream", bytes.NewReader(raw)))
				check(http.Get(ts.URL + "/v2/traces/" + tr.Digest))
			}
		}()
	}
	wg.Wait()
}
