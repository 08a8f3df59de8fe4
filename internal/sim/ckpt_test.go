package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dwarn/internal/ckpt"
	"dwarn/internal/config"
	"dwarn/internal/core"
	"dwarn/internal/pipeline"
	"dwarn/internal/store"
	"dwarn/internal/trace"
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

// flipDigest returns a copy of an encoded image with thread 0's program
// digest flipped and the CRC trailer recomputed: a well-framed image
// whose program no longer matches.
func flipDigest(t *testing.T, data []byte) []byte {
	t.Helper()
	out := append([]byte(nil), data[:len(data)-4]...)
	off := 8 // magic
	skip := func() int {
		v, n := binary.Uvarint(out[off:])
		if n <= 0 {
			t.Fatal("image layout changed: cut varint")
		}
		off += n
		return int(v)
	}
	off += skip() // key
	skip()        // thread count
	off += skip() // benchmark name
	off += 8      // thread seed
	skip()        // address base
	out[off] ^= 1 // first digest byte
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// TestRestoreFallbackNeverWrongAnswer: a checkpoint that cannot serve
// the run must cost time, never correctness. An image whose cores do
// not fit the workload falls back to a cold calibration; a corrupt or
// digest-mismatched image on disk is a miss, and the run calibrates
// cold. Either way the run gets the cold digest.
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
			return &ckpt.Image{Key: img.Key, Cores: append(append([]*workload.Core(nil), img.Cores...), img.Cores[0])}
		},
		"missing-sources": func(img *ckpt.Image) *ckpt.Image {
			return &ckpt.Image{Key: img.Key}
		},
		"swapped-threads": func(img *ckpt.Image) *ckpt.Image {
			return &ckpt.Image{Key: img.Key, Cores: []*workload.Core{img.Cores[1], img.Cores[0]}}
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

	files := map[string]func([]byte) []byte{
		"corrupt-file":    func(b []byte) []byte { b = append([]byte(nil), b...); b[len(b)/2] ^= 0xFF; return b },
		"digest-mismatch": func(b []byte) []byte { return flipDigest(t, b) },
	}
	for name, damage := range files {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ds, err := ckpt.NewDirStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			warm := base
			warm.Checkpoints = ds
			if _, err := Run(warm); err != nil { // publish a good image
				t.Fatal(err)
			}
			path := filepath.Join(dir, CheckpointKey(warm)+".ckpt")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := ds.Get(CheckpointKey(warm)); ok {
				t.Fatal("damaged image served as a hit")
			}
			forked, err := Run(warm)
			if err != nil {
				t.Fatalf("damaged checkpoint failed the run instead of missing: %v", err)
			}
			if got := digest(t, forked); got != want {
				t.Errorf("run over a damaged image diverged from cold start:\n cold %s\n miss %s", want, got)
			}
		})
	}
}

// TestForkFromDiskRunsNoDryRun: a run whose group image sits only on
// disk — a fresh chain, an empty memory tier, as in a new process —
// forks from it: it gets the cold digest and runs no calibration dry
// run, and the disk hit refills the memory tier.
func TestForkFromDiskRunsNoDryRun(t *testing.T) {
	wl, err := workload.GetWorkload("4-MIX")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Policy: "dwarn", Workload: wl, Seed: 11, WarmupCycles: 1500, MeasureCycles: 3000}
	cold, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() (*store.Mem[*ckpt.Image], ckpt.Chain) {
		ds, err := ckpt.NewDirStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		mem := ckpt.NewMemStore(0)
		return mem, ckpt.Chain{mem, ds}
	}
	warm := base
	_, warm.Checkpoints = open()
	if _, err := Run(warm); err != nil { // calibrates and writes the image
		t.Fatal(err)
	}

	mem, chain := open()
	warm.Checkpoints = chain
	before := workload.DryRuns()
	forked, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	if n := workload.DryRuns() - before; n != 0 {
		t.Errorf("disk fork ran %d calibration dry runs, want 0", n)
	}
	if got, want := digest(t, forked), digest(t, cold); got != want {
		t.Errorf("disk fork diverged from cold start:\n cold %s\n fork %s", want, got)
	}
	if mem.Len() != 1 {
		t.Errorf("memory tier holds %d images after the disk hit, want 1", mem.Len())
	}
}

// TestCheckpointKeySplit pins the key's identity rules: machine,
// policy, its params, and run lengths share a key; workload and seed
// changes split it; trace replays get none.
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
	same.Config, err = config.ByName("small")
	if err != nil {
		t.Fatal(err)
	}
	if got := CheckpointKey(same); got != k {
		t.Errorf("machine/policy/length changes must not split the key: %s vs %s", k, got)
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
	replay := base
	replay.Trace = &trace.Trace{}
	if got := CheckpointKey(replay); got != "" {
		t.Errorf("trace replay got key %q, want none", got)
	}
}

// groupImage calibrates workload wl at the default seed and returns the
// image a run of its group publishes.
func groupImage(tb testing.TB, wl string) (workload.Workload, *ckpt.Image) {
	tb.Helper()
	w, err := workload.GetWorkload(wl)
	if err != nil {
		tb.Fatal(err)
	}
	cores, err := w.Cores(DefaultSeed)
	if err != nil {
		tb.Fatal(err)
	}
	return w, &ckpt.Image{Key: CheckpointKey(Options{Workload: w}), Cores: cores}
}

// Images stay small on disk because they hold each thread's compact
// calibration, not its program; ApproxBytes — what the memory tier's
// byte bound counts — covers every materialized program slice: at
// least 8 bytes (a branch bias) per slot of every thread's program.
func TestCheckpointImageSize(t *testing.T) {
	for _, name := range []string{"2-MIX", "4-MIX", "8-MEM"} {
		wl, img := groupImage(t, name)
		enc, held := len(ckpt.Encode(img)), img.ApproxBytes()
		t.Logf("%s: %d bytes encoded, %d held", name, enc, held)
		if enc > 64<<10 {
			t.Errorf("%s: image encodes to %d bytes, want <= 64 KB", name, enc)
		}
		slots := 0
		for _, b := range wl.Benchmarks {
			slots += workload.MustGet(b).CodeBytes / 4
		}
		if held < 8*slots {
			t.Errorf("%s: ApproxBytes %d below the %d program slots' biases alone", name, held, slots)
		}
	}
}

// startGroupRun is the per-cell start-up a forked run pays: fresh
// streams over the cores, a fresh baseline machine, and prewarm.
func startGroupRun(tb testing.TB, cores []*workload.Core) {
	pol, err := core.NewPolicy("icount")
	if err != nil {
		tb.Fatal(err)
	}
	srcs := workload.Sources(cores)
	cpu, err := pipeline.New(config.Baseline(), pol, srcs)
	if err != nil {
		tb.Fatal(err)
	}
	prewarm(cpu, srcs)
}

// BenchmarkGroupStart times the three ways a run of a checkpoint group
// starts: cold (calibrate the cores, then build and prewarm the
// machine), memory fork (build and prewarm over the memory tier's
// shared cores) and disk fork (decode the image, then build and
// prewarm).
func BenchmarkGroupStart(b *testing.B) {
	for _, name := range []string{"2-MIX", "4-MIX", "8-MEM"} {
		wl, img := groupImage(b, name)
		data := ckpt.Encode(img)
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				cores, err := wl.Cores(DefaultSeed)
				if err != nil {
					b.Fatal(err)
				}
				startGroupRun(b, cores)
			}
		})
		b.Run(name+"/memory-fork", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				startGroupRun(b, img.Cores)
			}
		})
		b.Run(name+"/disk-fork", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				got, err := ckpt.Decode(data)
				if err != nil {
					b.Fatal(err)
				}
				startGroupRun(b, got.Cores)
			}
		})
	}
}
