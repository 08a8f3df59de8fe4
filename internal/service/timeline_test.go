package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"dwarn/internal/obs"
	"dwarn/internal/spec"
	"dwarn/internal/timeline"
)

// logBuffer collects log output under a mutex: the server logs from
// HTTP goroutines, job workers, and exec cells concurrently.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *logBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceIDPropagatesEndToEnd is the tracing acceptance test: the
// X-Request-ID presented at POST /v2/sweeps must surface verbatim in
// the service's own log lines, the exec worker's cell logs, and the
// sim run's log line — one trace id from HTTP accept to cycle loop.
func TestTraceIDPropagatesEndToEnd(t *testing.T) {
	var logs logBuffer
	_, ts := newTestServer(t, Options{
		Workers: 2,
		Logger:  obs.NewLogger(&logs, obs.LevelDebug),
	})

	const trace = "test-trace-1"
	body, err := json.Marshal(spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v2/sweeps", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v2/sweeps: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-ID"); got != trace {
		t.Fatalf("response echoes request id %q, want %q", got, trace)
	}
	var st SweepStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur SweepStatus
		getJSON(t, ts, "/v2/sweeps/"+st.ID, &cur)
		if cur.State != "running" {
			if cur.State != "done" {
				t.Fatalf("sweep ended %q", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sweep did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Each layer tags its lines with the same trace id. The obs logger
	// leaves simple tokens unquoted, so the markers are literal.
	got := logs.String()
	for layer, markers := range map[string][]string{
		"service (request log)":  {`msg=request`, `id=` + trace},
		"service (sweep submit)": {`msg="sweep submitted"`, `trace=` + trace},
		"exec (cell log)":        {`msg="cell start"`, `trace=` + trace},
		"sim (run log)":          {`msg="sim run"`, `trace=` + trace},
	} {
		found := false
		for _, line := range strings.Split(got, "\n") {
			ok := true
			for _, m := range markers {
				if !strings.Contains(line, m) {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: no log line carrying %v\nlogs:\n%s", layer, markers, got)
		}
	}
}

// TestV2RunTimeline: a spec that requests sampling gets its frames back
// from GET /v2/runs/{id}/timeline; a plain run 404s with an explanation.
func TestV2RunTimeline(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})

	withTL := submitRun(t, ts, spec.RunSpec{
		Policy:       spec.Policy{Name: "dwarn"},
		Workload:     spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
		Timeline: &spec.TimelineSpec{IntervalCycles: 1000},
	})
	waitJob(t, ts, withTL.ID, StateDone)

	var out struct {
		ID          string             `json:"id"`
		Fingerprint string             `json:"fingerprint"`
		Timeline    *timeline.Timeline `json:"timeline"`
	}
	resp := getJSON(t, ts, "/v2/runs/"+withTL.ID+"/timeline", &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timeline endpoint: status %d", resp.StatusCode)
	}
	if out.ID != withTL.ID || out.Fingerprint == "" {
		t.Errorf("timeline envelope %+v", out)
	}
	if out.Timeline == nil || len(out.Timeline.Frames) != int(testMeasure/1000) {
		t.Fatalf("timeline frames %+v, want %d", out.Timeline, testMeasure/1000)
	}
	if out.Timeline.IntervalCycles != 1000 {
		t.Errorf("interval %d, want 1000", out.Timeline.IntervalCycles)
	}

	// A run that never asked for sampling has no frames to serve.
	plain := submitRun(t, ts, spec.RunSpec{
		Policy:       spec.Policy{Name: "icount"},
		Workload:     spec.Workload{Name: "2-MIX"},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	})
	waitJob(t, ts, plain.ID, StateDone)
	if resp := getJSON(t, ts, "/v2/runs/"+plain.ID+"/timeline", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("plain run timeline: status %d, want 404", resp.StatusCode)
	}

	// Unfinished or unknown ids are distinguishable from frame-less runs.
	if resp := getJSON(t, ts, "/v2/runs/nonesuch/timeline", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown run timeline: status %d, want 404", resp.StatusCode)
	}
}

// TestV2SweepSSEFrames: a timeline-enabled sweep interleaves live
// "frame" events in its SSE stream as intervals close inside running
// cells, alongside the usual cell transitions and final end event.
func TestV2SweepSSEFrames(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	sweep := spec.SweepSpec{
		Policies:     []spec.PolicyAxis{{Name: "dwarn"}},
		Workloads:    []spec.Workload{{Name: "2-MIX"}},
		WarmupCycles: testWarmup, MeasureCycles: testMeasure,
		Timeline: &spec.TimelineSpec{IntervalCycles: 1000},
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

	var frames []SweepEvent
	var ended bool
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
			case "frame":
				var ev SweepEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad frame event %q: %v", data, err)
				}
				if ev.State != SweepEventFrame || ev.Frame == nil {
					t.Fatalf("malformed frame event %+v", ev)
				}
				frames = append(frames, ev)
			case "cell", "end":
				if event == "end" {
					ended = true
				}
			default:
				t.Fatalf("unknown SSE event %q", event)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !ended {
		t.Error("stream had no end event")
	}
	if want := int(testMeasure / 1000); len(frames) != want {
		t.Fatalf("%d frame events, want %d", len(frames), want)
	}
	for i, ev := range frames {
		if ev.Fingerprint == "" || len(ev.Frame.Threads) != 2 {
			t.Errorf("frame %d: %+v", i, ev)
		}
		if ev.Frame.StartCycle != int64(i)*1000 {
			t.Errorf("frame %d starts at %d, want %d", i, ev.Frame.StartCycle, i*1000)
		}
	}
}
