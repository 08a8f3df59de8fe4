package service

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/journal"
	"dwarn/internal/spec"
)

// testGridSpecs resolves a small canonical grid — what a journal submit
// record carries for a sweep over these policies.
func testGridSpecs(t *testing.T, policies ...string) []spec.RunSpec {
	t.Helper()
	out := make([]spec.RunSpec, 0, len(policies))
	for _, p := range policies {
		rs := spec.RunSpec{
			Policy:        spec.Policy{Name: p},
			Workload:      spec.Workload{Name: "2-MIX"},
			WarmupCycles:  testWarmup,
			MeasureCycles: testMeasure,
		}
		res, err := rs.Resolve(nil)
		if err != nil {
			t.Fatalf("resolve %s: %v", p, err)
		}
		out = append(out, res.Spec)
	}
	return out
}

func openStore(t *testing.T, dir string) *exec.DirStore {
	t.Helper()
	ds, err := exec.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func openJournal(t *testing.T, path string) (*journal.Journal, []journal.Record) {
	t.Helper()
	j, recs, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

// waitSweep polls until the sweep leaves StateRunning.
func waitSweep(t *testing.T, srv *Server, id string) *SweepStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		sw, ok := srv.lookup(srv.sweeps, id)
		if !ok {
			t.Fatalf("sweep %s not registered", id)
		}
		srv.mu.Lock()
		st := srv.sweepStatusLocked(sw)
		srv.mu.Unlock()
		if st.State != StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish in time", id)
	return nil
}

// An unfinished journaled sweep is resumed on startup under its
// original id, marked recovered, completes with fingerprints identical
// to the pre-crash run, and serves already-stored cells from the store
// precheck without re-simulating.
func TestSweepRecoveryResumesWithIdenticalDigests(t *testing.T) {
	dir := t.TempDir()
	specs := testGridSpecs(t, "icount", "dwarn")

	// Pre-crash life: a server with the same durable store ran one of
	// the two cells to completion (the crash interrupted the other).
	srvA, tsA := newTestServer(t, Options{Workers: 2, Store: openStore(t, filepath.Join(dir, "store"))})
	first := submitRun(t, tsA, testRun("icount", "2-MIX"))
	done := waitJob(t, tsA, first.ID, StateDone)
	var firstRes SimulationResult
	if err := json.Unmarshal(done.Result, &firstRes); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srvA.Shutdown(ctx)
	cancel()
	tsA.Close()
	_ = srvA

	// The journal a kill -9 would leave: a submit record, no finish.
	jpath := filepath.Join(dir, "journal.log")
	j, _ := openJournal(t, jpath)
	if err := j.Append(journal.Record{
		Type: journal.TypeSubmit, ID: "sweep-000007", Kind: journal.KindSweep,
		Time: time.Now().UTC(), Cells: specs,
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Restart: the server folds the journal and resumes the sweep.
	j2, recs := openJournal(t, jpath)
	srvB, tsB := newTestServer(t, Options{
		Workers: 2,
		Store:   openStore(t, filepath.Join(dir, "store")),
		Journal: j2, Recovered: recs,
	})
	defer tsB.Close()

	var st SweepStatus
	getJSON(t, tsB, "/v2/sweeps/sweep-000007", &st)
	if !st.Recovered {
		t.Fatalf("recovered sweep not flagged: %+v", st)
	}
	final := waitSweep(t, srvB, "sweep-000007")
	if final.State != StateDone {
		t.Fatalf("recovered sweep state %q: %+v", final.State, final)
	}
	if !final.Recovered {
		t.Fatal("terminal status lost the recovered flag")
	}
	if len(final.Cells) != 2 {
		t.Fatalf("%d cells", len(final.Cells))
	}
	for i, c := range final.Cells {
		if c.Fingerprint != mustFingerprint(t, specs[i]) {
			t.Fatalf("cell %d fingerprint drifted: %s", i, c.Fingerprint)
		}
	}
	// The icount cell was durably stored pre-crash: recovery completes
	// it from the store, bit-identical result.
	var icountCell *SweepCell
	for i := range final.Cells {
		if final.Cells[i].Policy == "icount" {
			icountCell = &final.Cells[i]
		}
	}
	if icountCell == nil || !icountCell.Cached {
		t.Fatalf("pre-crash cell not served from store: %+v", icountCell)
	}
	if icountCell.Fingerprint != firstRes.Fingerprint {
		t.Fatalf("recovered fingerprint %s != pre-crash %s", icountCell.Fingerprint, firstRes.Fingerprint)
	}
	if icountCell.Throughput == nil || *icountCell.Throughput != firstRes.Result.Throughput {
		t.Fatalf("recovered throughput drifted: %v vs %v", icountCell.Throughput, firstRes.Result.Throughput)
	}

	// Fresh ids advance past the recovered one.
	st2 := postSweep(t, tsB, spec.SweepSpec{
		Policies: []spec.PolicyAxis{{Name: "icount"}}, Workloads: []spec.Workload{{Name: "2-MIX"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if st2.ID <= "sweep-000007" {
		t.Fatalf("fresh id %s did not advance past recovered id", st2.ID)
	}
}

func mustFingerprint(t *testing.T, rs spec.RunSpec) string {
	t.Helper()
	res, err := rs.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Fingerprint
}

// A journaled sweep whose cells no longer resolve (its trace lived in
// the dead process's memory) recovers as terminal failed — observable,
// never re-resumed — rather than wedging startup.
func TestSweepRecoveryMissingTraceFailsNotWedged(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.log")
	j, _ := openJournal(t, jpath)
	traceCell := spec.RunSpec{
		Policy:        spec.Policy{Name: "icount"},
		Workload:      spec.Workload{Trace: "deadbeefdeadbeef"},
		WarmupCycles:  testWarmup,
		MeasureCycles: testMeasure,
	}
	if err := j.Append(journal.Record{
		Type: journal.TypeSubmit, ID: "sweep-000003", Kind: journal.KindSweep,
		Time: time.Now().UTC(), Cells: []spec.RunSpec{traceCell},
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, recs := openJournal(t, jpath)
	srv, ts := newTestServer(t, Options{Workers: 1, Journal: j2, Recovered: recs})
	defer ts.Close()

	var st SweepStatus
	resp := getJSON(t, ts, "/v2/sweeps/sweep-000003", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered-failed sweep not observable: %d", resp.StatusCode)
	}
	if st.State != StateFailed || !st.Recovered {
		t.Fatalf("state %q recovered %v, want failed/true", st.State, st.Recovered)
	}
	if len(st.Cells) != 1 || st.Cells[0].Error == "" {
		t.Fatalf("failure cause missing: %+v", st.Cells)
	}

	// The terminal record is durable: a second restart has nothing to
	// resume for this sweep.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	_, recs2 := openJournal(t, jpath)
	for _, e := range journal.Fold(recs2) {
		if e.ID == "sweep-000003" && e.Unfinished() {
			t.Fatal("failed sweep still unfinished after restart")
		}
	}
}

// An unfinished journaled run job is restored under its original id
// and completes; its terminal record lands in the journal.
func TestRunJobRecovery(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.log")
	specs := testGridSpecs(t, "dwarn")

	j, _ := openJournal(t, jpath)
	if err := j.Append(journal.Record{
		Type: journal.TypeSubmit, ID: "sim-000042", Kind: journal.KindRun,
		Time: time.Now().UTC(), Cells: specs,
	}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, recs := openJournal(t, jpath)
	srv, ts := newTestServer(t, Options{Workers: 1, Journal: j2, Recovered: recs})
	v := waitJob(t, ts, "sim-000042", StateDone)
	if v.ID != "sim-000042" {
		t.Fatalf("restored id %s", v.ID)
	}

	// Fresh job ids advance past the restored one.
	fresh := submitRun(t, ts, testRun("icount", "2-MIX"))
	if fresh.ID <= "sim-000042" {
		t.Fatalf("fresh job id %s did not advance", fresh.ID)
	}

	// Clean shutdown compacts the journal: nothing unfinished remains.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srv.Shutdown(ctx)
	cancel()
	_, recs2 := openJournal(t, jpath)
	if entries := journal.Fold(recs2); len(journal.Live(entries)) != 0 {
		t.Fatalf("unfinished entries after clean shutdown: %+v", entries)
	}
}

// Terminal run jobs stay listed across a crash restart: a journaled
// done job reappears in GET /v2/runs with its result re-attached
// from the durable store, a failed one reappears with its cause, and
// fresh ids advance past both.
func TestTerminalRunJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	specs := testGridSpecs(t, "icount")

	// Pre-crash life: the durable store pays for the cell once.
	srvA, tsA := newTestServer(t, Options{Workers: 1, Store: openStore(t, filepath.Join(dir, "store"))})
	first := submitRun(t, tsA, testRun("icount", "2-MIX"))
	preCrash := waitJob(t, tsA, first.ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srvA.Shutdown(ctx)
	cancel()
	tsA.Close()

	// The journal a kill -9 leaves: submit+finish pairs that compaction
	// never got to drop — one done job, one failed.
	jpath := filepath.Join(dir, "journal.log")
	j, _ := openJournal(t, jpath)
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmit, ID: "sim-000031", Kind: journal.KindRun, Time: time.Now().UTC(), Cells: specs},
		{Type: journal.TypeFinish, ID: "sim-000031", State: StateDone},
		{Type: journal.TypeSubmit, ID: "sim-000032", Kind: journal.KindRun, Time: time.Now().UTC(), Cells: specs},
		{Type: journal.TypeFinish, ID: "sim-000032", State: StateFailed, Error: "boom"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, recs := openJournal(t, jpath)
	_, tsB := newTestServer(t, Options{
		Workers: 1,
		Store:   openStore(t, filepath.Join(dir, "store")),
		Journal: j2, Recovered: recs,
	})
	defer tsB.Close()

	var done JobView
	if resp := getJSON(t, tsB, "/v2/runs/sim-000031", &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("done job forgotten after restart: %d", resp.StatusCode)
	}
	if done.State != StateDone || !done.Cached {
		t.Fatalf("done job state %q cached %v", done.State, done.Cached)
	}
	if string(done.Result) != string(preCrash.Result) {
		t.Fatalf("restored result drifted from pre-crash payload:\n%s\nvs\n%s", done.Result, preCrash.Result)
	}

	var failed JobView
	if resp := getJSON(t, tsB, "/v2/runs/sim-000032", &failed); resp.StatusCode != http.StatusOK {
		t.Fatalf("failed job forgotten after restart: %d", resp.StatusCode)
	}
	if failed.State != StateFailed || failed.Error != "boom" {
		t.Fatalf("failed job state %q error %q", failed.State, failed.Error)
	}

	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	getJSON(t, tsB, "/v2/runs", &list)
	if len(list.Jobs) != 2 {
		t.Fatalf("listing has %d jobs after restart, want 2", len(list.Jobs))
	}

	fresh := submitRun(t, tsB, testRun("icount", "2-MIX"))
	if fresh.ID <= "sim-000032" {
		t.Fatalf("fresh job id %s did not advance past restored terminal ids", fresh.ID)
	}
}

// A done baselines run stays whole across a crash restart on -store:
// its payload is re-attached with the relative-IPC summary, derived
// again from the stored run and solo-baseline results.
func TestTerminalBaselinesRunKeepsSummary(t *testing.T) {
	dir := t.TempDir()
	rs := spec.RunSpec{
		Policy:        spec.Policy{Name: "dwarn"},
		Workload:      spec.Workload{Name: "2-MIX"},
		WarmupCycles:  testWarmup,
		MeasureCycles: testMeasure,
		Baselines:     true,
	}
	res, err := rs.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-crash life: the durable store pays for the run and its solos.
	srvA, tsA := newTestServer(t, Options{Workers: 2, Store: openStore(t, filepath.Join(dir, "store"))})
	preCrash := waitJob(t, tsA, submitRun(t, tsA, rs).ID, StateDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	_ = srvA.Shutdown(ctx)
	cancel()
	tsA.Close()

	jpath := filepath.Join(dir, "journal.log")
	j, _ := openJournal(t, jpath)
	for _, rec := range []journal.Record{
		{Type: journal.TypeSubmit, ID: "sim-000051", Kind: journal.KindRun, Time: time.Now().UTC(), Cells: []spec.RunSpec{res.Spec}},
		{Type: journal.TypeFinish, ID: "sim-000051", State: StateDone},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	j2, recs := openJournal(t, jpath)
	_, tsB := newTestServer(t, Options{
		Workers: 1,
		Store:   openStore(t, filepath.Join(dir, "store")),
		Journal: j2, Recovered: recs,
	})
	var done JobView
	if resp := getJSON(t, tsB, "/v2/runs/sim-000051", &done); resp.StatusCode != http.StatusOK {
		t.Fatalf("done run forgotten after restart: %d", resp.StatusCode)
	}
	if done.State != StateDone || !done.Cached {
		t.Fatalf("done run state %q cached %v", done.State, done.Cached)
	}
	sr, err := decodeSim(done.Result)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Summary == nil || sr.Summary.Hmean <= 0 {
		t.Fatalf("restored baselines run lost its summary: %s", done.Result)
	}
	if string(done.Result) != string(preCrash.Result) {
		t.Fatalf("restored payload drifted from pre-crash:\n%s\nvs\n%s", done.Result, preCrash.Result)
	}
}

// Shutdown-canceled sweeps write terminal records before the journal
// compacts, so a canceled-at-shutdown sweep is never re-resumed.
func TestShutdownCancelWritesTerminalRecord(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "journal.log")
	j, _ := openJournal(t, jpath)

	srv := New(Options{
		Workers: 1, MaxCycles: 500_000_000,
		Journal: j, Recovered: nil,
	})
	// A sweep long enough to still be running at shutdown.
	cells, err := srv.resolveSweep(spec.SweepSpec{
		Policies:      []spec.PolicyAxis{{Name: "icount"}},
		Workloads:     []spec.Workload{{Name: "8-MEM"}},
		WarmupCycles:  200_000_000,
		MeasureCycles: 200_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.startSweep(sweepStart{cells: cells, trace: "test"})
	if err != nil {
		t.Fatal(err)
	}

	// Immediate-deadline shutdown cancels the sweep mid-flight.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	_ = srv.Shutdown(ctx)
	cancel()

	_, recs := openJournal(t, jpath)
	entries := journal.Fold(recs)
	for _, e := range entries {
		if e.ID == st.id && e.Unfinished() {
			t.Fatalf("shutdown-canceled sweep %s still unfinished in journal", st.id)
		}
	}
	if live := journal.Live(entries); len(live) != 0 {
		t.Fatalf("journal kept %d live records after shutdown", len(live))
	}
}
