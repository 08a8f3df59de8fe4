package sim

import (
	"context"
	"testing"
	"time"

	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/workload"
)

func testOpts(t *testing.T) Options {
	t.Helper()
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Policy: "dwarn", Workload: wl, WarmupCycles: 1000, MeasureCycles: 2000}
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	base := testOpts(t)
	fp := Fingerprint(base)
	if fp == "" || fp != Fingerprint(base) {
		t.Fatal("fingerprint not stable")
	}

	// Defaults are applied before hashing: explicit defaults and zero
	// values are the same simulation.
	explicit := base
	explicit.Config = config.Baseline()
	explicit.Seed = DefaultSeed
	if Fingerprint(explicit) != fp {
		t.Error("explicit defaults changed the fingerprint")
	}

	variants := map[string]Options{}
	v := base
	v.Seed = 99
	variants["seed"] = v
	v = base
	v.Policy = "icount"
	variants["policy"] = v
	v = base
	v.MeasureCycles = 4000
	variants["measure"] = v
	v = base
	v.Config = config.Deep()
	variants["machine"] = v
	v = base
	v.Workload, _ = workload.GetWorkload("2-MEM")
	variants["workload"] = v
	for name, opt := range variants {
		if Fingerprint(opt) == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

// TestFingerprintPolicyInstanceParams: a parameterised instance must not
// collide with the default-parameter instance of the same policy, even
// though both share a Name() — the bug that made threshold sweeps alias
// the base policy's cache entries. An instance without parameters
// (ICOUNT) keys by its bare name.
func TestFingerprintPolicyInstanceParams(t *testing.T) {
	base := testOpts(t)
	base.Policy = ""
	instance := func(name string, params map[string]int64) Options {
		t.Helper()
		pol, err := core.NewPolicyParams(name, params)
		if err != nil {
			t.Fatal(err)
		}
		o := base
		o.PolicyInstance = pol
		return o
	}

	if policyIdentity(instance("icount", nil)) != "instance:ICOUNT" {
		t.Error(`ICOUNT instance does not key as "instance:ICOUNT"`)
	}
	if policyIdentity(instance("stall", nil)) != "instance:STALL|threshold=15" {
		t.Error(`default STALL instance does not key as "instance:STALL|threshold=15"`)
	}

	def := instance("stall", nil)
	tuned := instance("stall", map[string]int64{"threshold": 25})
	if Fingerprint(def) == Fingerprint(tuned) {
		t.Error("STALL threshold variant collides with default STALL")
	}

	dgDef := instance("dg", nil)
	dgTuned := instance("dg", map[string]int64{"n": 2})
	if Fingerprint(dgDef) == Fingerprint(dgTuned) {
		t.Error("DG gate-count variant collides with default DG")
	}

	// Stability: the same parameters hash identically.
	tuned2 := instance("stall", map[string]int64{"threshold": 25})
	if Fingerprint(tuned) != Fingerprint(tuned2) {
		t.Error("parameterised instance fingerprint unstable")
	}
}

func TestRunContextCancel(t *testing.T) {
	opts := testOpts(t)
	opts.WarmupCycles = 100_000_000
	opts.MeasureCycles = 100_000_000
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if _, err := RunContext(ctx, opts); err != context.Canceled {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
}
