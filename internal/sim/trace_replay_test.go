package sim

import (
	"bytes"
	"testing"

	"dwarn/internal/core"
	"dwarn/internal/isa"
	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// recordTrace records n uops per thread of wlName standalone (no
// pipeline), returning the loaded trace.
func recordTrace(t testing.TB, wlName string, seed uint64, n int) *trace.Trace {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(recordTraceBytes(t, wlName, seed, n)), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// recordTraceBytes is recordTrace's file bytes, written as `smttrace
// record` writes them.
func recordTraceBytes(t testing.TB, wlName string, seed uint64, n int) []byte {
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
		for i := 0; i < n; i++ {
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

// TestTraceReplayMatchesLiveRun is the acceptance property for the
// trace subsystem: one standalone-recorded trace, replayed through
// sim.Run under EVERY registered policy, reproduces the per-thread
// committed-instruction counts and IPCs of the corresponding live
// generator runs exactly. The correct-path stream is policy-independent
// and wrong paths are synthesized bit-identically, so equality is
// exact, not approximate.
func TestTraceReplayMatchesLiveRun(t *testing.T) {
	const (
		wlName  = "2-MIX"
		seed    = 42
		warmup  = 3000
		measure = 9000
		// Headroom: the fetch engine cannot consume more correct-path
		// uops than fetch width × cycles; in practice a fraction of
		// that. 90k uops per thread covers every policy comfortably.
		uops = 90000
	)
	tr := recordTrace(t, wlName, seed, uops)
	wl, _ := workload.GetWorkload(wlName)

	for _, policy := range core.Policies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			live, err := Run(Options{
				Policy:        policy,
				Workload:      wl,
				Seed:          seed,
				WarmupCycles:  warmup,
				MeasureCycles: measure,
			})
			if err != nil {
				t.Fatal(err)
			}
			replay, err := Run(Options{
				Policy:        policy,
				Trace:         tr,
				Seed:          seed,
				WarmupCycles:  warmup,
				MeasureCycles: measure,
			})
			if err != nil {
				t.Fatal(err)
			}

			if len(replay.Threads) != len(live.Threads) {
				t.Fatalf("thread count %d, want %d", len(replay.Threads), len(live.Threads))
			}
			for i := range live.Threads {
				lt, rt := &live.Threads[i], &replay.Threads[i]
				if rt.Benchmark != lt.Benchmark {
					t.Errorf("t%d benchmark %q, want %q", i, rt.Benchmark, lt.Benchmark)
				}
				if rt.Pipeline.Committed != lt.Pipeline.Committed {
					t.Errorf("t%d committed %d, want %d", i, rt.Pipeline.Committed, lt.Pipeline.Committed)
				}
				if rt.IPC != lt.IPC {
					t.Errorf("t%d IPC %v, want %v", i, rt.IPC, lt.IPC)
				}
				if rt.Pipeline != lt.Pipeline {
					t.Errorf("t%d pipeline stats diverge:\n got %+v\nwant %+v", i, rt.Pipeline, lt.Pipeline)
				}
			}
			if replay.Throughput != live.Throughput {
				t.Errorf("throughput %v, want %v", replay.Throughput, live.Throughput)
			}
		})
	}
}

// TestRecordDuringRunRoundTrips: recording through Options.Record
// during a live simulation and replaying the result under the same
// policy reproduces the run (the cmd/smtsim -trace path).
func TestRecordDuringRunRoundTrips(t *testing.T) {
	wl, _ := workload.GetWorkload("2-MEM")
	w := trace.NewWriter(wl.Name, 7)
	live, err := Run(Options{
		Policy:        "dwarn",
		Workload:      wl,
		Record:        w,
		Seed:          7,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}

	replay, err := Run(Options{
		Policy:        "dwarn",
		Trace:         tr,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range live.Threads {
		if replay.Threads[i].Pipeline != live.Threads[i].Pipeline {
			t.Errorf("t%d pipeline stats diverge:\n got %+v\nwant %+v",
				i, replay.Threads[i].Pipeline, live.Threads[i].Pipeline)
		}
	}
}

// TestTraceFingerprint: the run identity must track trace content and
// differ from the synthetic identity of the same workload.
func TestTraceFingerprint(t *testing.T) {
	tr1 := recordTrace(t, "2-ILP", 5, 2000)
	tr2 := recordTrace(t, "2-ILP", 6, 2000) // different seed → different content
	wl, _ := workload.GetWorkload("2-ILP")

	synth := Fingerprint(Options{Policy: "dwarn", Workload: wl})
	a := Fingerprint(Options{Policy: "dwarn", Trace: tr1})
	b := Fingerprint(Options{Policy: "dwarn", Trace: tr2})
	a2 := Fingerprint(Options{Policy: "dwarn", Trace: tr1})
	if a == synth || a == b {
		t.Error("trace fingerprints collide")
	}
	if a != a2 {
		t.Error("trace fingerprint unstable")
	}

	// Replay never consumes the seed, so seed must not split the cache:
	// identical trace runs differing only in Seed share one identity.
	s1 := Fingerprint(Options{Policy: "dwarn", Trace: tr1, Seed: 1})
	s2 := Fingerprint(Options{Policy: "dwarn", Trace: tr1, Seed: 2})
	if s1 != s2 || s1 != a {
		t.Error("seed leaked into the trace-run fingerprint")
	}
}
