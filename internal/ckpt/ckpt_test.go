package ckpt

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dwarn/internal/bpred"
	"dwarn/internal/mem/cache"
	"dwarn/internal/mem/tlb"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// testImage builds a small but fully-populated image: every field the
// codec carries is non-zero somewhere, so a round-trip that drops one
// fails DeepEqual.
func testImage() *Image {
	return &Image{
		Key:  "aabb01",
		Seed: 42,
		Core: pipeline.CoreState{Now: 123, AgeCtr: 456, LastCommitAt: 100, NumThreads: 2},
		L1I: cache.State{Sets: 2, Ways: 1, UseClock: 9, Lines: []cache.LineState{
			{Tag: 1, Valid: true, ReadyAt: 5, LastUse: 7}, {Tag: 2},
		}},
		L1D: cache.State{Sets: 1, Ways: 2, UseClock: 3, Lines: []cache.LineState{
			{Tag: 8, Valid: true}, {LastUse: 4},
		}},
		L2: cache.State{Sets: 1, Ways: 1, UseClock: 1, Lines: []cache.LineState{
			{Tag: 15, Valid: true, ReadyAt: 2, LastUse: 3},
		}},
		DTLB: []tlb.State{
			{Clock: 3, Entries: []tlb.EntryState{{Page: 7, Valid: true, LastUse: 2}}},
			{Clock: 1, Entries: []tlb.EntryState{{Page: 9}}},
		},
		Bpred: bpred.State{
			PHT: []uint8{0, 1, 2, 3}, BTBSets: 1, BTBWays: 2, BTBClock: 5,
			BTB:     []bpred.BTBEntryState{{Tag: 9, Target: 11, Valid: true, LastUse: 1}, {}},
			History: []uint32{5, 0},
			RAS:     [][]uint64{{1, 2}, {3}},
			RASTop:  []int{1, 0},
		},
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
