package journal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalOpen writes arbitrary bytes as a journal file and opens
// it. Open must never panic, and because it truncates a torn tail, a
// second Open of the same file must replay the same records and find
// nothing torn.
func FuzzJournalOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.log")
	j, _, err := Open(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Time: time.Unix(1700000000, 0).UTC(), Cells: testCells(2)},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
		{Type: TypeSubmit, ID: "sim-000001", Kind: KindRun, Cells: testCells(1)},
		{Type: TypeFinish, ID: "sweep-000001", State: "done"},
		{Type: TypeCancel, ID: "sim-000001"},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	j.Close()
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{1, 4, 8, 9, len(valid) / 2} {
		f.Add(valid[:len(valid)-cut]) // torn mid-frame
	}
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-3] ^= 0xff // bad checksum on the last frame
	f.Add(flipped)
	f.Add(valid[:len(header)-2]) // torn before the header ends

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, first, err := Open(path)
		if err != nil {
			return // a foreign header is refused, never guessed at
		}
		j.Close()
		j, again, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after a successful open: %v", err)
		}
		defer j.Close()
		if j.Torn() {
			t.Error("second Open found a torn tail: truncation is not idempotent")
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("second Open replayed %d records, first %d (or they differ)", len(again), len(first))
		}
	})
}
