package exec

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// TestDirStoreFingerprintSanitization: the store refuses keys that are
// not lowercase-hex digests — its keys become file names in a directory
// other processes may share (smtsim -store and dwarnd -store), so a key
// must never be able to name a path outside the store.
func TestDirStoreFingerprintSanitization(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := &sim.Result{Cycles: 1}
	hostile := []string{
		"",
		"../escape",
		"..",
		"a/b",
		`a\b`,
		".hidden",
		"UPPERHEX00",
		"0123456789abcdefg", // one non-hex char
		strings.Repeat("a", 129),
	}
	for _, fp := range hostile {
		store.Put(fp, res)
		if _, ok := store.Get(fp); ok {
			t.Errorf("hostile key %q round-tripped", fp)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("hostile keys created files: %v", ents)
	}
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); err == nil {
		t.Fatal("a key escaped the store directory")
	}
}

// TestDirStoreResultFilesFailClosed: a result file edited in place, or
// renamed onto another fingerprint, is a miss — the cell re-simulates —
// never a wrong answer served for that fingerprint. So is a file in the
// plain-JSON form written before results carried a checksum, which the
// next put rewrites.
func TestDirStoreResultFilesFailClosed(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ds.Put("aa", &sim.Result{Workload: "2-MIX", Cycles: 123456, Throughput: 1.5})
	path := filepath.Join(dir, "aa.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(`"Cycles":123456`), []byte(`"Cycles":923456`), 1)
	if bytes.Equal(edited, raw) {
		t.Fatalf("no Cycles field to edit in %s", raw)
	}
	write := func(path string, b []byte) {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(path, edited)
	if got, ok := ds.Get("aa"); ok {
		t.Fatalf("edited result file served: Cycles=%d", got.Cycles)
	}

	write(path, raw)
	if err := os.Rename(path, filepath.Join(dir, "bb.json")); err != nil {
		t.Fatal(err)
	}
	if got, ok := ds.Get("bb"); ok {
		t.Fatalf("aa's result served for bb: %+v", got)
	}

	write(filepath.Join(dir, "cc.json"), []byte(`{"Workload":"2-MIX","Cycles":1}`))
	if _, ok := ds.Get("cc"); ok {
		t.Fatal("unchecksummed result file served")
	}
	ds.Put("cc", &sim.Result{Workload: "2-MIX", Cycles: 2})
	if got, ok := ds.Get("cc"); !ok || got.Cycles != 2 {
		t.Fatalf("rewritten entry: ok=%v got=%+v", ok, got)
	}
}

// FuzzResultDecode feeds arbitrary bytes through the DirStore read
// path. Decoding must never panic, and a hit must be a value that
// survives re-encoding under the same fingerprint unchanged.
func FuzzResultDecode(f *testing.F) {
	const fp = "00c0ffee"
	rs := spec.RunSpec{
		Policy:       spec.Policy{Name: "dwarn"},
		Workload:     spec.Workload{Name: "2-MIX"},
		WarmupCycles: 500, MeasureCycles: 1500,
	}
	res, err := rs.Resolve(nil)
	if err != nil {
		f.Fatal(err)
	}
	ran, err := sim.Run(res.Options)
	if err != nil {
		f.Fatal(err)
	}
	dir := f.TempDir()
	ds, err := NewDirStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, fp+".json")
	for _, r := range []*sim.Result{ran, {}} {
		ds.Put(fp, r)
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		if _, ok := ds.Get(fp); !ok {
			f.Fatal("seed encoding does not read back")
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add([]byte(`{"Workload":"2-MIX","Cycles":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := ds.Get(fp)
		if !ok {
			return
		}
		again, err := resultCodec.Encode(fp, got)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		back, err := resultCodec.Decode(fp, again)
		if err != nil || !reflect.DeepEqual(got, back) {
			t.Fatalf("decoded result does not round-trip (err %v):\n%+v\n%+v", err, got, back)
		}
	})
}
