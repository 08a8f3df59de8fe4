package journal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dwarn/internal/chaos"
	"dwarn/internal/spec"
)

func testCells(n int) []spec.RunSpec {
	cells := make([]spec.RunSpec, n)
	for i := range cells {
		cells[i] = spec.RunSpec{
			Policy:   spec.Policy{Name: "dwarn"},
			Workload: spec.Workload{Name: "2-MIX"},
			Seed:     uint64(i + 1),
		}
	}
	return cells
}

func mustOpen(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	t.Cleanup(func() { j.Close() })
	return j, recs
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, recs := mustOpen(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}

	sub := Record{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Time: time.Now().UTC().Truncate(time.Second), Cells: testCells(3)}
	for _, rec := range []Record{
		sub,
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "bb22"},
		{Type: TypeFinish, ID: "sweep-000001", State: "done"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := j.Appends(); got != 4 {
		t.Fatalf("Appends = %d, want 4", got)
	}
	j.Close()

	j2, recs2 := mustOpen(t, path)
	if j2.Torn() {
		t.Fatal("clean journal reported torn")
	}
	if len(recs2) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs2))
	}
	if recs2[0].Type != TypeSubmit || len(recs2[0].Cells) != 3 || recs2[0].Cells[2].Seed != 3 {
		t.Fatalf("submit record mangled: %+v", recs2[0])
	}
	entries := Fold(recs2)
	if len(entries) != 1 {
		t.Fatalf("Fold: %d entries", len(entries))
	}
	e := entries[0]
	if e.Unfinished() || e.State != "done" {
		t.Fatalf("entry mangled: %+v", e)
	}
}

// A crash mid-append leaves a torn final frame: replay must surface
// every earlier record, truncate the tail, and leave the journal
// appendable on a clean boundary.
func TestTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := mustOpen(t, path)
	if err := j.Append(Record{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Cells: testCells(1)}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the tail at several depths; every cut past the first record
	// must still replay that record.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	for _, cut := range []int64{1, 3, 7, 20} {
		if err := os.WriteFile(path, full[:st.Size()-cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs := mustOpen(t, path)
		if !j2.Torn() {
			t.Fatalf("cut %d: torn tail not detected", cut)
		}
		if len(recs) != 1 || recs[0].Type != TypeSubmit {
			t.Fatalf("cut %d: replayed %d records, want the 1 submit", cut, len(recs))
		}
		// The truncated journal accepts appends and round-trips again.
		if err := j2.Append(Record{Type: TypeFinish, ID: "sweep-000001", State: "canceled"}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		j2.Close()
		_, recs = mustOpen(t, path)
		if len(recs) != 2 || recs[1].State != "canceled" {
			t.Fatalf("cut %d: re-replay got %d records", cut, len(recs))
		}
		// Restore the original bytes for the next cut.
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// A flipped byte mid-file fails that frame's checksum; replay keeps
// everything before it and discards the rest (the tail cannot be
// trusted past a corrupt frame).
func TestCorruptChecksumEndsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := mustOpen(t, path)
	for i, rec := range []Record{
		{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Cells: testCells(1)},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
		{Type: TypeFinish, ID: "sweep-000001", State: "done"},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in the middle of the file (inside record 2).
	raw[len(raw)-20] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, recs := mustOpen(t, path)
	if !j2.Torn() {
		t.Fatal("corruption not detected")
	}
	if len(recs) == 0 || recs[0].Type != TypeSubmit {
		t.Fatalf("lost the leading good records: %d replayed", len(recs))
	}
	for _, rec := range recs {
		if rec.Type == TypeFinish {
			t.Fatal("replay crossed the corrupt frame")
		}
	}
}

// Cell-done records — appended by older servers, possibly duplicated
// — still replay: they fold into their entry without changing it.
func TestDuplicateCellRecordsAreIdempotent(t *testing.T) {
	recs := []Record{
		{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Cells: testCells(2)},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
		{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"},
	}
	entries := Fold(recs)
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	if !entries[0].Unfinished() {
		t.Fatal("entry with no finish record reported finished")
	}
}

func TestFoldCancelAndOrphanRecords(t *testing.T) {
	recs := []Record{
		{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep},
		{Type: TypeCancel, ID: "sweep-000001"},
		// Orphans: no submit record (compaction dropped it) — inert.
		{Type: TypeCell, ID: "sweep-999999", Fingerprint: "aa11"},
		{Type: TypeFinish, ID: "sweep-999999", State: "done"},
	}
	entries := Fold(recs)
	if len(entries) != 1 {
		t.Fatalf("%d entries", len(entries))
	}
	if entries[0].State != "canceled" || entries[0].Unfinished() {
		t.Fatalf("cancel record not terminal: %+v", entries[0])
	}
}

// Compaction keeps only unfinished entries and survives a crash at the
// injection point with the old log intact (tmp+rename: old-or-new,
// never a hybrid) — mirroring the DirStore atomic-put audit.
func TestCompactionAndMidCrashAudit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := mustOpen(t, path)
	appendAll := func(recs ...Record) {
		t.Helper()
		for _, rec := range recs {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	appendAll(
		Record{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Cells: testCells(2)},
		Record{Type: TypeFinish, ID: "sweep-000001", State: "done"},
		Record{Type: TypeSubmit, ID: "sweep-000002", Kind: KindSweep, Cells: testCells(2)},
		Record{Type: TypeCell, ID: "sweep-000002", Fingerprint: "aa11"},
	)

	// Injected crash at the compaction point: the operation fails, the
	// journal still holds every original record.
	chaos.Set(func(point, detail string) error {
		if point == "journal.compact" {
			return chaos.ErrInjected
		}
		return nil
	})
	err := j.Compact(Live(Fold([]Record{})))
	chaos.Set(nil)
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("chaos compact: %v", err)
	}
	j.Close()
	j2, recs := mustOpen(t, path)
	if len(recs) != 4 {
		t.Fatalf("after failed compaction: %d records, want the original 4", len(recs))
	}

	// A stray temp file from a crash between write and rename must not
	// disturb the journal.
	if err := os.WriteFile(filepath.Join(filepath.Dir(path), ".journal.tmp-stray"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Real compaction: only the unfinished sweep-000002 survives, and
	// the journal stays appendable.
	if err := j2.Compact(Live(Fold(recs))); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := j2.Append(Record{Type: TypeFinish, ID: "sweep-000002", State: "done"}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	j2.Close()

	_, recs = mustOpen(t, path)
	entries := Fold(recs)
	if len(entries) != 1 || entries[0].ID != "sweep-000002" {
		t.Fatalf("after compaction: %+v", entries)
	}
	if entries[0].State != "done" {
		t.Fatalf("sweep-000002 state lost: %+v", entries[0])
	}
}

func TestForeignFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	if err := os.WriteFile(path, []byte("this is definitely not a dwarn journal file\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil {
		t.Fatal("foreign file accepted")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := mustOpen(t, path)
	j.Close()
	if err := j.Append(Record{Type: TypeCancel, ID: "x"}); err == nil {
		t.Fatal("append after close succeeded")
	}
}

// The chaos torn-write injection must leave exactly the state a real
// crash between write and fsync leaves: a half frame that the next
// Open truncates away.
func TestChaosTornAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, _ := mustOpen(t, path)
	if err := j.Append(Record{Type: TypeSubmit, ID: "sweep-000001", Kind: KindSweep, Cells: testCells(1)}); err != nil {
		t.Fatal(err)
	}
	chaos.Set(func(point, detail string) error {
		if point == "journal.append" {
			return chaos.ErrTorn
		}
		return nil
	})
	err := j.Append(Record{Type: TypeCell, ID: "sweep-000001", Fingerprint: "aa11"})
	chaos.Set(nil)
	if !errors.Is(err, chaos.ErrTorn) {
		t.Fatalf("torn append: %v", err)
	}
	j.Close()

	j2, recs := mustOpen(t, path)
	defer j2.Close()
	if !j2.Torn() {
		t.Fatal("torn frame not detected on reopen")
	}
	if len(recs) != 1 || recs[0].Type != TypeSubmit {
		t.Fatalf("replayed %d records, want the 1 submit", len(recs))
	}
}
