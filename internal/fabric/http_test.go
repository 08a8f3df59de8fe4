package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// FuzzFabricRPC drives arbitrary bodies through the lease, heartbeat
// and complete handlers. No body may panic a handler; one that does not
// decode into the route's request type gets a 4xx, and one that does
// never gets a 5xx (an invalid worker id is a 400).
func FuzzFabricRPC(f *testing.F) {
	rs := spec.RunSpec{
		Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		Seed: 1, WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	cell, err := rs.Resolve(nil)
	if err != nil {
		f.Fatal(err)
	}
	w := WorkerInfo{ID: "wA-0123456789abcdef", Name: "wA", Capacity: 2}
	for _, v := range []any{
		LeaseRequest{Worker: w, Max: 1, WaitMillis: 50},
		HeartbeatRequest{Worker: w, LeaseIDs: []string{"l-00000001"}},
		CompleteRequest{Worker: w, LeaseID: "l-00000001", Fingerprint: cell.Fingerprint, Result: &sim.Result{Cycles: 1}},
		CompleteRequest{Worker: w, LeaseID: "l-00000001", Fingerprint: cell.Fingerprint, Error: "boom"},
		HeartbeatRequest{Worker: WorkerInfo{ID: "bad id\n"}},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{"", "{", "null", `{"worker":{"id":1}}`, `{"bogus":true}`, `{"max":-5,"wait_ms":-1}`} {
		f.Add([]byte(s))
	}

	c := NewCoordinator(exec.New(exec.Options{Workers: -1, Registry: obs.NewRegistry()}), Config{Registry: obs.NewRegistry()})
	f.Cleanup(c.Close)
	mux := http.NewServeMux()
	c.Routes(mux)
	routes := []struct {
		path string
		req  func() any
	}{
		{"/v2/fabric/lease", func() any { return new(LeaseRequest) }},
		{"/v2/fabric/heartbeat", func() any { return new(HeartbeatRequest) }},
		{"/v2/fabric/complete", func() any { return new(CompleteRequest) }},
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		for _, r := range routes {
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			decodable := dec.Decode(r.req()) == nil

			// The request context bounds a lease long-poll.
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)).WithContext(ctx)
			rec := httptest.NewRecorder()
			mux.ServeHTTP(rec, req)
			cancel()
			if !decodable && (rec.Code < 400 || rec.Code >= 500) {
				t.Errorf("%s: undecodable body %q got %d, want 4xx", r.path, body, rec.Code)
			}
			if decodable && rec.Code >= 500 {
				t.Errorf("%s: body %q got %d", r.path, body, rec.Code)
			}
		}
	})
}

// TestFabricRPCRejectsBadWorkerID: the worker id arrives from the
// network and keys the fleet, so every worker RPC answers an empty,
// over-long or non-printable one with a 400 and adds no worker.
func TestFabricRPCRejectsBadWorkerID(t *testing.T) {
	c, ts := newTestFabric(t, Config{})
	for _, id := range []string{"", strings.Repeat("w", 65), "a b", "w\x00", "wörker"} {
		for path, body := range map[string]any{
			"/v2/fabric/lease":     LeaseRequest{Worker: WorkerInfo{ID: id}, Max: 1},
			"/v2/fabric/heartbeat": HeartbeatRequest{Worker: WorkerInfo{ID: id}},
			"/v2/fabric/complete":  CompleteRequest{Worker: WorkerInfo{ID: id}, Error: "boom"},
		} {
			b, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with worker id %q: status %d, want 400", path, id, resp.StatusCode)
			}
		}
	}
	if n := c.WorkerCount(); n != 0 {
		t.Errorf("bad ids added %d workers", n)
	}
}
