package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dwarn/internal/exec"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// FuzzFabricRPC drives arbitrary bodies through the register, lease,
// heartbeat and complete handlers. No body may panic a handler; one that
// does not decode into the route's request type gets a 4xx, and one
// that does never gets a 5xx.
func FuzzFabricRPC(f *testing.F) {
	rs := spec.RunSpec{
		Policy: spec.Policy{Name: "icount"}, Workload: spec.Workload{Name: "2-MIX"},
		Seed: 1, WarmupCycles: testWarmup, MeasureCycles: testMeasure,
	}
	cell, err := rs.Resolve(nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range []any{
		RegisterRequest{Name: "wA", Capacity: 2},
		LeaseRequest{WorkerID: "w-000001", Max: 1, WaitMillis: 50},
		HeartbeatRequest{WorkerID: "w-000001", LeaseIDs: []string{"l-00000001"}},
		CompleteRequest{WorkerID: "w-000001", LeaseID: "l-00000001", Fingerprint: cell.Fingerprint, Result: &sim.Result{Cycles: 1}},
		CompleteRequest{WorkerID: "w-000001", LeaseID: "l-00000001", Fingerprint: cell.Fingerprint, Error: "boom"},
	} {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{"", "{", "null", `{"worker_id":1}`, `{"bogus":true}`, `{"max":-5,"wait_ms":-1}`} {
		f.Add([]byte(s))
	}

	c := NewCoordinator(exec.New(exec.Options{Workers: -1, Registry: obs.NewRegistry()}), Config{Registry: obs.NewRegistry()})
	f.Cleanup(c.Close)
	// w-000001 is known, so seeded bodies reach past the worker lookup.
	if _, err := c.register(RegisterRequest{Name: "fuzz"}); err != nil {
		f.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Routes(mux)
	routes := []struct {
		path string
		req  func() any
	}{
		{"/v2/fabric/workers", func() any { return new(RegisterRequest) }},
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
