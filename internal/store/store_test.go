package store_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"dwarn/internal/chaos"
	"dwarn/internal/ckpt"
	"dwarn/internal/exec"
	"dwarn/internal/sim"
	"dwarn/internal/store"
	"dwarn/internal/workload"
)

// kind is one row of the conformance table: a way to open a store over
// values of type V, and a family of self-checking values.
type kind[V any] struct {
	// open opens (or reopens) the store; dir is unused by memory-only
	// kinds.
	open func(dir string) store.Store[V]
	// ext is the file suffix of the kind's Dir tier ("" = memory only).
	ext string
	// tiny opens a store whose budget is below one value (memory
	// kinds); nil skips the LRU cases, which need a bound of two.
	tiny func() store.Store[V]
	// val builds value number i for key; idx recovers i from a value
	// read under key, or -1 when the value is not intact or not key's.
	val func(key string, i int) V
	idx func(key string, v V) int
}

func resultVal(key string, i int) *sim.Result {
	return &sim.Result{Workload: key, Policy: "ICOUNT", Cycles: int64(i), Throughput: float64(i),
		Threads: []sim.ThreadResult{{IPC: float64(i) / 2}}}
}

func resultIdx(key string, r *sim.Result) int {
	if r.Workload != key || float64(r.Cycles) != r.Throughput || len(r.Threads) != 1 || r.Threads[0].IPC != r.Throughput/2 {
		return -1
	}
	return int(r.Cycles)
}

// ckptCal is one calibrated gzip core in compact form; ckptVal moves
// its address base to carry i, which rebuilds the core without a
// calibration run (the base does not reach the program text).
var ckptCal = sync.OnceValue(func() workload.Calibration {
	wl, err := workload.Custom("conformance", []string{"gzip"})
	if err != nil {
		panic(err)
	}
	cores, err := wl.Cores(1)
	if err != nil {
		panic(err)
	}
	return cores[0].Calibration()
})

func ckptVal(key string, i int) *ckpt.Image {
	cal := ckptCal()
	cal.Base = uint64(i)
	c, err := cal.Core()
	if err != nil {
		panic(err)
	}
	return &ckpt.Image{Key: key, Cores: []*workload.Core{c}}
}

func ckptIdx(key string, img *ckpt.Image) int {
	if img.Key != key || len(img.Cores) != 1 {
		return -1
	}
	return int(img.Cores[0].Calibration().Base)
}

func resultSize(*sim.Result) int64 { return 100 }

func resultDir(dir string) store.Store[*sim.Result] {
	ds, err := exec.NewDirStore(dir)
	if err != nil {
		panic(err)
	}
	return ds
}

func ckptDir(dir string) store.Store[*ckpt.Image] {
	ds, err := ckpt.NewDirStore(dir)
	if err != nil {
		panic(err)
	}
	return ds
}

// TestConformance runs one suite over every store the repository
// builds: the LRU bounded by count and by bytes, the directory tier
// under each codec, and the standard mem-over-dir chain.
func TestConformance(t *testing.T) {
	t.Run("mem-count", func(t *testing.T) {
		conform(t, kind[*sim.Result]{
			open: func(string) store.Store[*sim.Result] { return store.NewMem[*sim.Result](2, 0, nil) },
			tiny: func() store.Store[*sim.Result] { return store.NewMem[*sim.Result](1, 0, nil) },
			val:  resultVal, idx: resultIdx,
		})
	})
	t.Run("mem-bytes", func(t *testing.T) {
		conform(t, kind[*sim.Result]{
			open: func(string) store.Store[*sim.Result] { return store.NewMem(0, 200, resultSize) },
			tiny: func() store.Store[*sim.Result] { return store.NewMem(0, 1, resultSize) },
			val:  resultVal, idx: resultIdx,
		})
	})
	t.Run("dir-result", func(t *testing.T) {
		conform(t, kind[*sim.Result]{open: resultDir, ext: ".json", val: resultVal, idx: resultIdx})
	})
	t.Run("dir-ckpt", func(t *testing.T) {
		conform(t, kind[*ckpt.Image]{open: ckptDir, ext: ".ckpt", val: ckptVal, idx: ckptIdx})
	})
	t.Run("chain-mem-dir", func(t *testing.T) {
		conform(t, kind[*sim.Result]{
			open: func(dir string) store.Store[*sim.Result] {
				return store.Chain[*sim.Result]{store.NewMem[*sim.Result](2, 0, nil), resultDir(dir)}
			},
			ext: ".json", val: resultVal, idx: resultIdx,
		})
	})
}

func key(i int) string { return fmt.Sprintf("%016x", i) }

func conform[V any](t *testing.T, k kind[V]) {
	// newDir returns a fresh store directory inside a fresh parent, so
	// a test can check nothing escaped into the parent.
	newDir := func(t *testing.T) string { return filepath.Join(t.TempDir(), "s") }
	want := func(t *testing.T, s store.Store[V], key string, i int) {
		t.Helper()
		v, ok := s.Get(key)
		if !ok {
			t.Fatalf("Get(%s) missed, want value %d", key, i)
		}
		if got := k.idx(key, v); got != i {
			t.Fatalf("Get(%s) = value %d, want %d", key, got, i)
		}
	}
	miss := func(t *testing.T, s store.Store[V], key, why string) {
		t.Helper()
		if _, ok := s.Get(key); ok {
			t.Fatalf("Get(%s) hit after %s", key, why)
		}
	}

	t.Run("get-put", func(t *testing.T) {
		dir := newDir(t)
		s := k.open(dir)
		miss(t, s, key(1), "nothing was stored")
		s.Put(key(1), k.val(key(1), 1))
		want(t, s, key(1), 1)
		s.Put(key(1), k.val(key(1), 2))
		want(t, s, key(1), 2)
		if k.ext != "" {
			want(t, k.open(dir), key(1), 2) // durable across openers
		}
	})

	if k.tiny != nil {
		t.Run("lru-order", func(t *testing.T) {
			s := k.open("")
			a, b, c := key(1), key(2), key(3)
			s.Put(a, k.val(a, 1))
			s.Put(b, k.val(b, 2))
			want(t, s, a, 1)      // a is now most recent
			s.Put(c, k.val(c, 3)) // evicts b
			miss(t, s, b, "eviction")
			want(t, s, a, 1)
			want(t, s, c, 3)
			s.Put(a, k.val(a, 4)) // a re-put refreshes without growing
			want(t, s, a, 4)
			want(t, s, c, 3)
		})
		t.Run("keep-newest-over-budget", func(t *testing.T) {
			s := k.tiny()
			s.Put(key(1), k.val(key(1), 1))
			s.Put(key(2), k.val(key(2), 2))
			if n := s.(interface{ Len() int }).Len(); n != 1 {
				t.Fatalf("over-budget store holds %d entries, want 1", n)
			}
			want(t, s, key(2), 2)
			miss(t, s, key(1), "eviction")
		})
	}

	t.Run("invalid-keys", func(t *testing.T) {
		dir := newDir(t)
		s := k.open(dir)
		for _, bad := range []string{"../x", "ABCD", "", strings.Repeat("a", 129), "a/b", `a\b`, ".hidden", "0123g"} {
			s.Put(bad, k.val(bad, 1))
			miss(t, s, bad, "a refused put")
		}
		if k.ext == "" {
			return
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Fatalf("invalid keys created files: %v", ents)
		}
		if ents, _ := os.ReadDir(filepath.Dir(dir)); len(ents) != 1 {
			t.Fatalf("invalid keys escaped the store directory: %v", ents)
		}
	})

	if k.ext == "" {
		return
	}
	// The file cases damage what one opener wrote and read it back
	// through a fresh opener, so a chain's memory tier cannot mask it.
	stored := func(t *testing.T) (dir, path string, raw []byte) {
		dir = newDir(t)
		k.open(dir).Put(key(7), k.val(key(7), 7))
		path = filepath.Join(dir, key(7)+k.ext)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, raw
	}
	rewrite := func(t *testing.T, path string, b []byte) {
		t.Helper()
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// stride caps a per-byte case at ~256 probes.
	stride := func(n int) int { return max(1, n/256) }

	t.Run("truncated-file", func(t *testing.T) {
		dir, path, raw := stored(t)
		for cut := 0; cut < len(raw); cut += stride(len(raw)) {
			rewrite(t, path, raw[:cut])
			miss(t, k.open(dir), key(7), fmt.Sprintf("truncation to %d of %d bytes", cut, len(raw)))
		}
	})
	t.Run("byte-flip", func(t *testing.T) {
		// XOR 1 keeps an ASCII digit a digit ("123456" → "023456"), so
		// text codecs are probed with well-formed wrong values too.
		dir, path, raw := stored(t)
		for pos := 0; pos < len(raw); pos += stride(len(raw)) {
			b := append([]byte(nil), raw...)
			b[pos] ^= 1
			rewrite(t, path, b)
			miss(t, k.open(dir), key(7), fmt.Sprintf("flipping byte %d (%q)", pos, raw[pos]))
		}
	})
	t.Run("rename", func(t *testing.T) {
		dir, path, _ := stored(t)
		if err := os.Rename(path, filepath.Join(dir, key(8)+k.ext)); err != nil {
			t.Fatal(err)
		}
		s := k.open(dir)
		miss(t, s, key(8), "renaming another key's file onto it")
		miss(t, s, key(7), "its file was renamed away")
	})
	t.Run("stray-tmp", func(t *testing.T) {
		// A writer killed between create and rename leaves its temp
		// file: no reader opens it, and later puts are unaffected.
		dir, path, raw := stored(t)
		stray := filepath.Join(dir, "."+key(9)+".tmp123")
		rewrite(t, stray, raw[:len(raw)/2])
		s := k.open(dir)
		miss(t, s, key(9), "only a stray temp file exists")
		s.Put(key(9), k.val(key(9), 9))
		want(t, k.open(dir), key(9), 9)
		want(t, k.open(dir), key(7), 7)
		if _, err := os.Stat(stray); err != nil {
			t.Fatalf("stray temp file disturbed: %v", err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("concurrent-openers", func(t *testing.T) { concurrentOpeners(t, k, newDir(t)) })
}

// concurrentOpeners hammers one directory through several independently
// opened stores (the multi-process sharing pattern: smtsim and dwarnd
// processes pointed at the same -store DIR) from many goroutines
// under -race. Every Get must observe either a miss or a complete,
// self-consistent entry — never a torn write — and the directory must
// end up holding exactly the final entries with no temp litter.
func concurrentOpeners[V any](t *testing.T, k kind[V], dir string) {
	const openers, writersPerStore, rounds, keys = 3, 4, 25, 8
	stores := make([]store.Store[V], openers)
	for i := range stores {
		stores[i] = k.open(dir)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for si, s := range stores {
		for w := 0; w < writersPerStore; w++ {
			wg.Add(1)
			go func(s store.Store[V], seed int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					kk := (seed + r) % keys
					s.Put(key(kk), k.val(key(kk), 1000*kk+r))
					got, ok := s.Get(key(kk))
					if !ok {
						continue // racing rename windows may miss; never torn
					}
					if i := k.idx(key(kk), got); i < 0 || i/1000 != kk {
						select {
						case errs <- fmt.Sprintf("torn or foreign read for key %d: %+v", kk, got):
						default:
						}
					}
				}
			}(s, si*writersPerStore+w)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".") {
			t.Errorf("temp litter left behind: %s", e.Name())
			continue
		}
		seen++
	}
	if seen != keys {
		t.Errorf("directory holds %d entries, want %d", seen, keys)
	}
	for kk := 0; kk < keys; kk++ {
		got, ok := k.open(dir).Get(key(kk))
		if !ok {
			t.Errorf("key %d lost", kk)
		} else if i := k.idx(key(kk), got); i < 0 || i/1000 != kk {
			t.Errorf("key %d final entry torn: %+v", kk, got)
		}
	}
}

// Range walks least recently used first, without refreshing entries.
func TestMemRange(t *testing.T) {
	m := store.NewMem[*sim.Result](0, 0, nil)
	for i := 1; i <= 3; i++ {
		m.Put(key(i), resultVal(key(i), i))
	}
	m.Get(key(1))
	for pass := 0; pass < 2; pass++ {
		var order []string
		m.Range(func(k string, _ *sim.Result) { order = append(order, k) })
		if want := []string{key(2), key(3), key(1)}; !slices.Equal(order, want) {
			t.Fatalf("Range order = %v, want %v", order, want)
		}
	}
}

func TestValidKey(t *testing.T) {
	for _, ok := range []string{"ab12", "0", "deadbeef", strings.Repeat("f", 128)} {
		if !store.ValidKey(ok) {
			t.Errorf("ValidKey(%q) = false", ok)
		}
	}
	bad := []string{"", "AB", "xyz", "a/b", "../etc", "a.b", "0123456789abcdefg", strings.Repeat("a", 129)}
	for _, k := range bad {
		if store.ValidKey(k) {
			t.Errorf("ValidKey(%q) = true", k)
		}
	}
}

// Results and checkpoints share the one store.put chaos point, with
// detail kind:key, and an injected error drops the write.
func TestChaosPutPoint(t *testing.T) {
	var details []string
	chaos.Set(func(point, detail string) error {
		if point != "store.put" {
			return nil
		}
		details = append(details, detail)
		return chaos.ErrInjected
	})
	t.Cleanup(func() { chaos.Set(nil) })
	dir := t.TempDir()
	resultDir(dir).Put(key(1), resultVal(key(1), 1))
	ckptDir(dir).Put(key(2), ckptVal(key(2), 2))
	if want := []string{"result:" + key(1), "ckpt:" + key(2)}; !slices.Equal(details, want) {
		t.Fatalf("store.put details = %v, want %v", details, want)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("dropped puts left files: %v", ents)
	}
}
