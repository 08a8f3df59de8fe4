package sim

import (
	"context"
	"runtime"
	"testing"
	"time"

	"dwarn/internal/ckpt"
	"dwarn/internal/timeline"
	"dwarn/internal/workload"
)

// streamModes are the two ways a stream fills its chunks: inline, as
// every caller outside runContext uses it, and read ahead, as every run
// does.
var streamModes = []struct {
	name  string
	ahead bool
}{
	{"inline", false},
	{"read-ahead", true},
}

// engineSources builds wl's sources the way runContext does, with the
// streams reading ahead when ahead is set. The producers are stopped
// when t ends.
func engineSources(t *testing.T, wl workload.Workload, seed uint64, ahead bool) []workload.Source {
	t.Helper()
	srcs, _, err := buildSources(Options{Workload: wl}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if ahead {
		readAhead(srcs)
	}
	t.Cleanup(func() { stopStreams(srcs) })
	return srcs
}

// waitGoroutines waits for the goroutine count to fall back to base;
// an exited producer may still be counted for a moment after Stop.
func waitGoroutines(t *testing.T, base int, label string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, baseline %d: a producer outlived its run", label, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadProducersEnd: the deferred stop in runContext ends every
// producer on every exit path — a normal return, a context cancelled
// mid-measure, and a checkpoint fallback that recalibrated the cores.
func TestReadAheadProducersEnd(t *testing.T) {
	wl, err := workload.GetWorkload("4-MIX")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Policy: "dwarn", Workload: wl, Seed: 7, WarmupCycles: 1500, MeasureCycles: 4000}
	goroutines := runtime.NumGoroutine()

	// Normal return. The timeline hook observes the producers mid-run.
	normal := base
	normal.Timeline = &timeline.Config{IntervalCycles: 1000}
	during := 0
	normal.OnFrame = func(*timeline.Frame) { during = max(during, runtime.NumGoroutine()) }
	if _, err := Run(normal); err != nil {
		t.Fatal(err)
	}
	if during < goroutines+wl.Threads {
		t.Errorf("mid-run goroutines %d, want at least %d: the producers did not start", during, goroutines+wl.Threads)
	}
	waitGoroutines(t, goroutines, "normal return")

	// Context cancelled at the first measured frame.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := base
	cancelled.MeasureCycles = 1_000_000
	cancelled.Timeline = &timeline.Config{IntervalCycles: 1000}
	cancelled.OnFrame = func(*timeline.Frame) { cancel() }
	if _, err := RunContext(ctx, cancelled); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	waitGoroutines(t, goroutines, "cancel mid-measure")

	// Fallback: an image whose cores do not fit forces a cold calibration.
	inner := ckpt.NewMemStore(0)
	warm := base
	warm.Checkpoints = inner
	if _, err := Run(warm); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, goroutines, "checkpoint publish")
	warm.Checkpoints = tamperStore{inner: inner, tamper: func(img *ckpt.Image) *ckpt.Image {
		out := *img
		out.Cores = nil
		return &out
	}}
	if _, err := Run(warm); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, goroutines, "checkpoint fallback")
}
