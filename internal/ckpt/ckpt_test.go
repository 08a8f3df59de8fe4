package ckpt

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dwarn/internal/workload"
)

// testWorkloads are the workloads whose real images the codec tests
// use: 2, 4 and 8 threads.
var testWorkloads = []string{"2-MIX", "4-MIX", "8-MEM"}

// testKey is the key every test image is stored under.
const testKey = "aabb01"

var images struct {
	sync.Mutex
	m map[string]*Image
}

// testImage returns the image a run of wl at seed 7 publishes, its
// calibrated cores, under testKey; each is built once per test binary.
func testImage(tb testing.TB, wl string) *Image {
	tb.Helper()
	images.Lock()
	defer images.Unlock()
	if img, ok := images.m[wl]; ok {
		return img
	}
	w, err := workload.GetWorkload(wl)
	if err != nil {
		tb.Fatal(err)
	}
	cores, err := w.Cores(7)
	if err != nil {
		tb.Fatal(err)
	}
	if images.m == nil {
		images.m = map[string]*Image{}
	}
	img := &Image{Key: testKey, Cores: cores}
	images.m[wl] = img
	return img
}

func calibrations(img *Image) []workload.Calibration {
	cals := make([]workload.Calibration, len(img.Cores))
	for i, c := range img.Cores {
		cals[i] = c.Calibration()
	}
	return cals
}

// A decoded image holds cores identical to the calibrated ones, and
// re-encodes to the same bytes; an image is a few KB.
func TestCodecRoundTrip(t *testing.T) {
	for _, wl := range testWorkloads {
		img := testImage(t, wl)
		data := Encode(img)
		t.Logf("%s: %d bytes encoded, %d held", wl, len(data), img.ApproxBytes())
		out, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", wl, err)
		}
		if !reflect.DeepEqual(img, out) {
			t.Fatalf("%s: round trip drifted", wl)
		}
		if string(Encode(out)) != string(data) {
			t.Fatalf("%s: re-encoding drifted", wl)
		}
	}
}

// ApproxBytes counts every materialized program slice: it is the
// cores' sum plus the image's own few words, and a core of the
// built-in profiles is hundreds of KB.
func TestApproxBytesCountsCores(t *testing.T) {
	img := testImage(t, "4-MIX")
	sum := 0
	for i, c := range img.Cores {
		if n := c.ApproxBytes(); n < 100<<10 {
			t.Errorf("core %d counts %d bytes, want its program slices (>= 100 KB)", i, n)
		}
		sum += c.ApproxBytes()
	}
	if got := img.ApproxBytes(); got < sum || got > sum+256 {
		t.Errorf("ApproxBytes %d, cores hold %d", got, sum)
	}
}

// Every single-byte flip anywhere in the encoding must fail the CRC (or
// an earlier structural check) — a damaged checkpoint is a miss, never
// a wrong program.
func TestDecodeRejectsEveryByteFlip(t *testing.T) {
	data := Encode(testImage(t, "2-MIX"))
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
	data := Encode(testImage(t, "2-MIX"))
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
// recalibrates and overwrites it, never forks from it.
func TestDirStoreCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	img := testImage(t, "2-MIX")
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

// seal appends the CRC-32C trailer to an image body.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// malformedImages returns encodings that pass the CRC but must not
// decode, by the defect each one's error names.
func malformedImages(tb testing.TB) map[string][]byte {
	img := testImage(tb, "2-MIX")
	out := map[string][]byte{}
	mutate := func(defect string, f func(cal *workload.Calibration)) {
		cals := calibrations(img)
		f(&cals[1])
		out[defect] = encode(img.Key, cals)
	}
	mutate("program digest", func(cal *workload.Calibration) { cal.Digest ^= 1 })
	mutate("memory slots", func(cal *workload.Calibration) { cal.Regions = cal.Regions[:len(cal.Regions)-1] })
	mutate("region value 3", func(cal *workload.Calibration) { cal.Regions[0] = 3 })
	mutate("unknown benchmark", func(cal *workload.Calibration) { cal.Benchmark = "nosuch" })

	// A thread count whose varint never ends.
	body := append([]byte(magic), byte(len(img.Key)))
	body = append(append(body, img.Key...), 0x80)
	out["varint"] = seal(body)

	valid := Encode(img)
	out["trailing"] = seal(append(append([]byte(nil), valid[:len(valid)-4]...), 0))
	return out
}

// A well-framed image that is still wrong — a program that no longer
// matches its digest, a region count that is not the memory-slot
// count, a region value past far, an unknown benchmark, a cut varint, a
// trailing byte — is a decode error, so it stays a miss and no run
// forks from it.
func TestDecodeRejectsMalformedPackedState(t *testing.T) {
	for defect, data := range malformedImages(t) {
		_, err := Decode(data)
		if err == nil {
			t.Errorf("%s: decoded cleanly", defect)
			continue
		}
		if !strings.Contains(err.Error(), defect) {
			t.Errorf("%s: error %q does not name the defect", defect, err)
		}
	}
}

// A checkpoint written by an older format (DWCKPT01: a whole machine,
// one struct per cache way) is a plain miss in a DirStore, and the
// image that overwrites it reads back.
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
	img := testImage(t, "2-MIX")
	if err := os.WriteFile(filepath.Join(dir, img.Key+".ckpt"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := ds.Get(img.Key); ok {
		t.Fatal("DWCKPT01 checkpoint served as a hit")
	}
	ds.Put(img.Key, img)
	if got, ok := ds.Get(img.Key); !ok || !reflect.DeepEqual(got, img) {
		t.Fatal("new checkpoint did not replace the DWCKPT01 file")
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
	img := testImage(t, "2-MIX")
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
	img := testImage(t, "2-MIX")
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
// re-encoding under the same key unchanged. Seeds: the 2-MIX, 4-MIX
// and 8-MEM images, two cuts of the first, and the CRC-valid malformed
// encodings.
func FuzzCkptDecode(f *testing.F) {
	dir := f.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, testKey+".ckpt")
	for _, wl := range testWorkloads {
		f.Add(Encode(testImage(f, wl)))
	}
	raw := Encode(testImage(f, "2-MIX"))
	f.Add(raw[:len(raw)/2])
	f.Add(raw[:len(raw)-4])
	bad := malformedImages(f)
	for _, defect := range []string{"program digest", "memory slots", "region value 3", "unknown benchmark", "varint", "trailing"} {
		f.Add(bad[defect])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := ds.Get(testKey)
		if !ok {
			return
		}
		back, err := Decode(Encode(got))
		if err != nil || !reflect.DeepEqual(got, back) {
			t.Fatalf("decoded image does not round-trip (err %v)", err)
		}
	})
}
