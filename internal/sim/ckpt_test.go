package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"dwarn/internal/ckpt"
	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// digest collapses a Result into a hex string over every per-thread
// counter, so "bit-identical" is a one-line comparison.
func digest(t *testing.T, r *Result) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%d|%f\n", r.Cycles, r.Throughput)
	for _, th := range r.Threads {
		fmt.Fprintf(h, "%s|%#v|%#v|%#v\n", th.Benchmark, th.Pipeline, th.Mem, th.Bpred)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForkDeterminism is the engine's core contract: under every
// registry policy, a run forked from a checkpoint produces per-thread
// counters bit-identical to the same run started cold.
func TestForkDeterminism(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	policies := []string{"icount", "stall", "flush", "dg", "pdg", "dwarn", "dwarn-prio"}
	for _, polName := range policies {
		t.Run(polName, func(t *testing.T) {
			base := Options{
				Policy:        polName,
				Workload:      wl,
				Seed:          7,
				WarmupCycles:  1500,
				MeasureCycles: 3000,
			}
			cold, err := Run(base)
			if err != nil {
				t.Fatal(err)
			}
			store := ckpt.NewMemStore(ckpt.DefaultMemBytes)
			warm := base
			warm.Checkpoints = store
			// First checkpointed run warms cold and publishes...
			first, err := Run(warm)
			if err != nil {
				t.Fatal(err)
			}
			// ...second forks from the stored image.
			key := CheckpointKey(warm)
			if key == "" {
				t.Fatal("expected a non-empty checkpoint key")
			}
			if _, ok := store.Get(key); !ok {
				t.Fatalf("no checkpoint published under %s", key)
			}
			forked, err := Run(warm)
			if err != nil {
				t.Fatal(err)
			}
			want := digest(t, cold)
			if got := digest(t, first); got != want {
				t.Errorf("warming run diverged from plain cold start:\n cold %s\n warm %s", want, got)
			}
			if got := digest(t, forked); got != want {
				t.Errorf("forked run diverged from cold start:\n cold %s\n fork %s", want, got)
			}
		})
	}
}

// tamperStore wraps a store and mutates every image it serves, so the
// restore path sees a decodable-but-wrong checkpoint.
type tamperStore struct {
	inner  ckpt.Store
	tamper func(*ckpt.Image) *ckpt.Image
}

func (s tamperStore) Get(key string) (*ckpt.Image, bool) {
	img, ok := s.inner.Get(key)
	if !ok {
		return nil, false
	}
	return s.tamper(img), true
}
func (s tamperStore) Put(key string, img *ckpt.Image) { s.inner.Put(key, img) }

// TestRestoreFallbackNeverWrongAnswer: a damaged checkpoint that still
// decodes (the codec's CRC already kills byte-level corruption) must be
// rejected by Restore's shape checks, and the run must fall back to a
// cold start with a bit-identical result — a bad checkpoint can cost
// time, never correctness.
func TestRestoreFallbackNeverWrongAnswer(t *testing.T) {
	wl, err := workload.GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{
		Policy: "dwarn", Workload: wl, Seed: 7,
		WarmupCycles: 1500, MeasureCycles: 3000,
	}
	cold, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	want := digest(t, cold)

	tampers := map[string]func(*ckpt.Image) *ckpt.Image{
		"thread-count": func(img *ckpt.Image) *ckpt.Image {
			out := *img
			out.Core.NumThreads = img.Core.NumThreads + 1
			return &out
		},
		"missing-sources": func(img *ckpt.Image) *ckpt.Image {
			out := *img
			out.Sources = nil
			return &out
		},
		"truncated-dtlb": func(img *ckpt.Image) *ckpt.Image {
			out := *img
			out.DTLB = img.DTLB[:0]
			return &out
		},
		"malformed-l2-lines": func(img *ckpt.Image) *ckpt.Image {
			out := *img
			out.L2.Packed = append(append([]byte(nil), img.L2.Packed...), 0)
			return &out
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			inner := ckpt.NewMemStore(0)
			warm := base
			warm.Checkpoints = inner
			if _, err := Run(warm); err != nil { // publish a good image
				t.Fatal(err)
			}
			warm.Checkpoints = tamperStore{inner: inner, tamper: tamper}
			forked, err := Run(warm)
			if err != nil {
				t.Fatalf("tampered checkpoint failed the run instead of falling back: %v", err)
			}
			if got := digest(t, forked); got != want {
				t.Errorf("fallback run diverged from cold start:\n cold %s\n fall %s", want, got)
			}
		})
	}
}

// TestCheckpointKeySplitsFingerprint pins the key's identity rules:
// policy, its params, and run lengths share a key; machine, workload,
// and seed changes split it; trace/record/instance runs get none.
func TestCheckpointKeySplit(t *testing.T) {
	wl, err := workload.GetWorkload("2-ILP")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Policy: "icount", Workload: wl, Seed: 3}
	k := CheckpointKey(base)
	if k == "" {
		t.Fatal("base options should be checkpointable")
	}
	same := base
	same.Policy = "dwarn"
	same.PolicyParams = map[string]int64{"warn": 3}
	same.WarmupCycles = 9999
	same.MeasureCycles = 1234
	if got := CheckpointKey(same); got != k {
		t.Errorf("policy/length changes must not split the key: %s vs %s", k, got)
	}
	diffSeed := base
	diffSeed.Seed = 4
	if got := CheckpointKey(diffSeed); got == k {
		t.Error("seed change must split the key")
	}
	diffWl := base
	diffWl.Workload, _ = workload.GetWorkload("2-MEM")
	if got := CheckpointKey(diffWl); got == k {
		t.Error("workload change must split the key")
	}
}

// prewarmedMachine builds a baseline machine for workload wl and
// prewarms it: the state a checkpoint captures.
func prewarmedMachine(tb testing.TB, wl string) (*pipeline.CPU, []workload.Source) {
	tb.Helper()
	w, err := workload.GetWorkload(wl)
	if err != nil {
		tb.Fatal(err)
	}
	srcs, err := w.Generators(DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	pol, err := core.NewPolicy("icount")
	if err != nil {
		tb.Fatal(err)
	}
	cpu, err := pipeline.New(config.Baseline(), pol, srcs)
	if err != nil {
		tb.Fatal(err)
	}
	prewarm(cpu, srcs)
	return cpu, srcs
}

// Post-prewarm images stay small because they hold only valid lines and
// entries, and ApproxBytes — what the memory tier's byte bound counts —
// is what an image keeps resident: never below its encoding, and not
// far above it.
func TestCheckpointImageSize(t *testing.T) {
	for _, wl := range []string{"2-MIX", "4-MIX", "8-MEM"} {
		cpu, srcs := prewarmedMachine(t, wl)
		img, err := Snapshot("k", cpu, srcs, DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		enc, held := len(ckpt.Encode(img)), img.ApproxBytes()
		t.Logf("%s: %d bytes encoded, %d held", wl, enc, held)
		if enc > 64<<10 {
			t.Errorf("%s: image encodes to %d bytes, want <= 64 KB", wl, enc)
		}
		if held < enc || held > enc*3/2 {
			t.Errorf("%s: ApproxBytes %d outside [%d, %d]", wl, held, enc, enc*3/2)
		}
	}
}

// BenchmarkSnapshotRestore is the per-cell checkpoint cost a sweep pays:
// one pack of a post-prewarm 2-MIX machine and one unpack into it.
func BenchmarkSnapshotRestore(b *testing.B) {
	cpu, srcs := prewarmedMachine(b, "2-MIX")
	b.ReportAllocs()
	for b.Loop() {
		img, err := Snapshot("k", cpu, srcs, DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
		if err := Restore(img, cpu, srcs); err != nil {
			b.Fatal(err)
		}
	}
}
