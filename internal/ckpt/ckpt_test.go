package ckpt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dwarn/internal/bpred"
	"dwarn/internal/config"
	"dwarn/internal/isa"
	"dwarn/internal/mem/cache"
	"dwarn/internal/mem/tlb"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// testImage builds a small but fully-populated image from live
// structures: every field the codec carries is non-zero somewhere, the
// caches hold an in-flight line and an invalidated way, and the BTB and
// a DTLB hold both valid and empty entries, so a round-trip that drops
// or reorders one fails DeepEqual.
func testImage() *Image {
	small := func(sizeBytes int) *cache.Cache {
		return cache.New(config.CacheConfig{SizeBytes: sizeBytes, Ways: 2, LineBytes: 64, HitLatency: 1})
	}
	l1i, l1d, l2 := small(256), small(128), small(512)
	l1i.Access(0x1000, 5, 20) // in flight: readyAt 20
	l1i.Touch(0x2040)
	l1d.Touch(0x80)
	l1d.Touch(0x100)
	l1d.Invalidate(0x80)
	for a := uint64(0); a < 0x300; a += 0x40 {
		l2.Touch(a)
	}
	dtlb := []*tlb.TLB{tlb.New(4, 4096), tlb.New(2, 4096)}
	dtlb[0].Access(0x7000)
	dtlb[0].Access(0x9000)
	bp := bpred.New(config.BranchPredictorConfig{
		GshareEntries: 4, GshareHistoryBits: 2, BTBEntries: 4, BTBWays: 2, RASEntries: 2,
	}, 2)
	for _, u := range []*isa.Uop{
		{PC: 0x40, Class: isa.CondBranch, Branch: isa.BranchInfo{Taken: true, Target: 0x80}},
		{PC: 0x84, Class: isa.Call, Branch: isa.BranchInfo{Taken: true, Target: 0x400}},
	} {
		bp.Resolve(0, u, bp.Predict(0, u))
	}
	return &Image{
		Key:   "aabb01",
		Seed:  42,
		Core:  pipeline.CoreState{Now: 123, AgeCtr: 456, LastCommitAt: 100, NumThreads: 2},
		L1I:   l1i.State(),
		L1D:   l1d.State(),
		L2:    l2.State(),
		DTLB:  []tlb.State{dtlb[0].State(), dtlb[1].State()},
		Bpred: bp.State(),
		Sources: []workload.SourceState{
			{RNG: 1, Seq: 2, CurSlot: 3, IntWrites: 4, FPWrites: 5, MidCursor: 6, FarCursor: 7, WalkCur: 1, WalkDwell: 2},
			{RNG: 11, Seq: 12},
		},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	img := testImage()
	out, err := Decode(Encode(img))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(img, out) {
		t.Fatalf("round trip drifted:\n in %+v\nout %+v", img, out)
	}
}

// Every single-byte flip anywhere in the encoding must fail the CRC (or
// an earlier structural check) — a damaged checkpoint is a miss, never
// a wrong machine state.
func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	data := Encode(testImage())
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xFF
		if _, err := Decode(mut); err == nil {
			t.Fatalf("flip at offset %d decoded cleanly", i)
		}
	}
}

// Every truncation point must fail, as must trailing garbage.
func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(testImage())
	for n := 0; n < len(data); n++ {
		if _, err := Decode(data[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded cleanly", n, len(data))
		}
	}
	if _, err := Decode(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

// A corrupt or truncated on-disk checkpoint is a miss: the cell
// re-warms and overwrites it, never restores from it.
func TestDirStoreCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage()
	ds.Put(img.Key, img)
	if _, ok := ds.Get(img.Key); !ok {
		t.Fatal("stored checkpoint not readable")
	}

	path := filepath.Join(dir, img.Key+".ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(img.Key); ok {
		t.Fatal("truncated checkpoint served as a hit")
	}

	raw[9] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(img.Key); ok {
		t.Fatal("corrupt checkpoint served as a hit")
	}
}

// malformedImages returns images whose packed tables are CRC-valid once
// encoded but structurally broken, by name. Each must be a decode error.
func malformedImages() map[string]*Image {
	out := map[string]*Image{}
	mutate := func(name string, f func(img *Image)) {
		img := testImage()
		f(img)
		out[name] = img
	}
	mutate("cache-way-bit", func(img *Image) { img.L1D.Packed[0] |= 0x80 })
	// The L2's sets are all full, so its last byte ends a varint.
	mutate("cache-cut-varint", func(img *Image) { img.L2.Packed[len(img.L2.Packed)-1] |= 0x80 })
	mutate("cache-trailing", func(img *Image) { img.L2.Packed = append(img.L2.Packed, 0) })
	mutate("cache-geometry", func(img *Image) { img.L1I.Sets = 1 << 30 })
	mutate("dtlb-way-bit", func(img *Image) { img.DTLB[1].Packed[0] |= 0x04 })
	mutate("dtlb-cut-varint", func(img *Image) { img.DTLB[0].Packed = img.DTLB[0].Packed[:len(img.DTLB[0].Packed)-1] })
	mutate("btb-way-bit", func(img *Image) { img.Bpred.BTB[0] |= 0x80 })
	mutate("btb-trailing", func(img *Image) { img.Bpred.BTB = append(img.Bpred.BTB, 0) })
	return out
}

// A packed table that passes the CRC but breaks the packed form — a way
// bit beyond the set, a cut varint, trailing bytes, a geometry the bytes
// cannot hold — is a decode error, so it stays a miss and is never
// restored into a machine.
func TestDecodeRejectsMalformedPackedState(t *testing.T) {
	want := map[string]string{
		"way-bit": "beyond", "cut-varint": "varint", "trailing": "trailing", "geometry": "cannot hold",
	}
	for name, img := range malformedImages() {
		_, err := Decode(Encode(img))
		if err == nil {
			t.Errorf("%s: decoded cleanly", name)
			continue
		}
		if w := want[name[strings.IndexByte(name, '-')+1:]]; !strings.Contains(err.Error(), w) {
			t.Errorf("%s: error %q does not name the defect (%q)", name, err, w)
		}
	}
}

// A checkpoint written by the previous format (DWCKPT01: one struct per
// way) is a plain miss in a DirStore, and the re-warmed image that
// overwrites it reads back.
func TestDirStoreV1FileIsMiss(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(v1[:8]) != "DWCKPT01" {
		t.Fatalf("fixture magic %q", v1[:8])
	}
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage()
	if err := os.WriteFile(filepath.Join(dir, img.Key+".ckpt"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(img.Key); ok {
		t.Fatal("DWCKPT01 checkpoint served as a hit")
	}
	ds.Put(img.Key, img)
	if got, ok := ds.Get(img.Key); !ok || !reflect.DeepEqual(got, img) {
		t.Fatal("re-warmed checkpoint did not replace the DWCKPT01 file")
	}
}

// A renamed checkpoint file cannot impersonate another group: the key
// is part of the checksummed payload and verified on read.
func TestDirStoreRejectsRenamedFile(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage()
	ds.Put(img.Key, img)
	other := "ccdd02"
	if err := os.Rename(filepath.Join(dir, img.Key+".ckpt"), filepath.Join(dir, other+".ckpt")); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(other); ok {
		t.Fatal("renamed checkpoint impersonated another key")
	}
}

// The memory tier evicts LRU-by-bytes but always retains at least one
// entry, and the chain refills earlier tiers on a hit.
func TestMemStoreBoundAndChainRefill(t *testing.T) {
	img := testImage()
	small := NewMemStore(1) // below one image: still keeps the newest
	small.Put("aa", img)
	small.Put("bb", img)
	if small.Len() != 1 {
		t.Fatalf("over-budget store holds %d entries, want 1", small.Len())
	}
	if _, ok := small.Get("bb"); !ok {
		t.Fatal("newest entry evicted")
	}

	mem := NewMemStore(0)
	ds, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds.Put(img.Key, img)
	ch := Chain{mem, ds}
	if _, ok := ch.Get(img.Key); !ok {
		t.Fatal("chain missed the disk tier")
	}
	if _, ok := mem.Get(img.Key); !ok {
		t.Fatal("disk hit did not refill the memory tier")
	}
}

// FuzzCkptDecode feeds arbitrary bytes through the DirStore read path.
// Decoding must never panic, and a hit must be an image that survives
// re-encoding under the same key unchanged.
func FuzzCkptDecode(f *testing.F) {
	dir := f.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	img := testImage()
	path := filepath.Join(dir, img.Key+".ckpt")
	ds.Put(img.Key, img)
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, ok := ds.Get(img.Key); !ok {
		f.Fatal("seed encoding does not read back")
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:len(raw)-4])
	for _, bad := range malformedImages() {
		f.Add(Encode(bad))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := ds.Get(img.Key)
		if !ok {
			return
		}
		back, err := Decode(Encode(got))
		if err != nil || !reflect.DeepEqual(got, back) {
			t.Fatalf("decoded image does not round-trip (err %v):\n%+v\n%+v", err, got, back)
		}
	})
}
