// Package journal is the durable write-ahead record log behind
// dwarnd's sweep and job registries. The result cells themselves are
// already durable (exec.DirStore), but the registries — which sweeps
// exist, what they were asked to run, how far they got — were
// in-memory only, so a restart forgot every in-flight sweep. The
// journal closes that gap: an append-only, fsync'd, checksummed log of
// small records (submit / finish / cancel, keyed by id, the submit
// carrying the canonical cell specs) that the service replays on
// startup to resume unfinished work. Which cells of a resumed entry
// are already done is not journaled: the result store answers that at
// the resume's precheck.
//
// Format: a fixed header line, then length-prefixed frames — 4-byte
// little-endian payload length, 4-byte CRC-32C of the payload, JSON
// payload. Every append is flushed to stable storage before it is
// acknowledged, so a record the service acted on survives kill -9.
// Replay is truncated-tail tolerant: a torn final frame (crash mid
// write) ends replay at the last good record, and Open truncates the
// tail so the next append lands on a clean boundary. Compaction (clean
// shutdown) rewrites the log with only the records that still matter,
// through store.WriteFile (tmp + fsync + rename, the writer result and
// checkpoint puts use), so a crash mid-compaction leaves either the old
// log or the new one — never a hybrid.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dwarn/internal/chaos"
	"dwarn/internal/spec"
	"dwarn/internal/store"
)

// Record types, in the order a sweep emits them.
const (
	// TypeSubmit opens an entry: id, kind, and (for sweeps) the
	// canonical cell specs to re-resolve on recovery.
	TypeSubmit = "submit"
	// TypeCell marks one cell fingerprint durably stored. Fold accepts
	// and ignores it, so journals that carry it still replay: the
	// store precheck, not the journal, decides which cells a resumed
	// entry skips.
	TypeCell = "cell"
	// TypeFinish closes an entry with a terminal state.
	TypeFinish = "finish"
	// TypeCancel records a cancellation request; recovery treats it as
	// terminal so a sweep canceled by shutdown is never re-resumed.
	TypeCancel = "cancel"
)

// Entry kinds.
const (
	KindSweep = "sweep"
	KindRun   = "run"
)

// Record is one journal frame's payload.
type Record struct {
	Type string    `json:"type"`
	ID   string    `json:"id"`
	Kind string    `json:"kind,omitempty"` // submit only
	Time time.Time `json:"time,omitempty"` // submit only
	// Cells are the canonical cell specs of a submit record — enough to
	// re-resolve and resume the work with bit-identical fingerprints.
	Cells []spec.RunSpec `json:"cells,omitempty"`
	// Fingerprint identifies the stored cell of a TypeCell record.
	Fingerprint string `json:"fp,omitempty"`
	// State is the terminal state of a TypeFinish record.
	State string `json:"state,omitempty"`
	// Error carries a failed entry's message.
	Error string `json:"error,omitempty"`
}

// header is the file's first bytes; a file that does not start with it
// is not a journal (replay returns everything-lost rather than
// guessing at frames).
const header = "dwarn-journal-v1\n"

// maxRecordBytes bounds one frame's payload: far above any real record
// (the largest is a submit carrying a full sweep expansion), small
// enough that a corrupt length prefix cannot make replay allocate
// gigabytes.
const maxRecordBytes = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Journal is an open record log. Append is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string

	appends  uint64 // records appended since Open (metrics)
	replayed int    // records recovered by Open
	torn     bool   // Open found and truncated a torn tail
}

// Open reads the journal at path (creating it if absent), returning
// the surviving records in append order. A torn or corrupt tail —
// short frame, bad checksum, unparsable payload — ends replay at the
// last good record and is truncated away, so the next Append writes on
// a clean boundary. A file with a foreign header is refused.
func Open(path string) (*Journal, []Record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	recs, good, torn, err := replay(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if torn {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncating torn tail: %w", err)
		}
	}
	if good == 0 {
		// New (or fully torn-before-header) file: stamp the header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		if _, err := f.WriteAt([]byte(header), 0); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %w", err)
		}
		good = int64(len(header))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{f: f, path: path, replayed: len(recs), torn: torn}, recs, nil
}

// replay scans the file, returning the good records, the offset of the
// first byte past the last good frame, and whether a torn tail (any
// trailing garbage) was found.
func replay(f *os.File) ([]Record, int64, bool, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: %w", err)
	}
	if st.Size() == 0 {
		return nil, 0, false, nil
	}
	r := io.NewSectionReader(f, 0, st.Size())
	hdr := make([]byte, len(header))
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Shorter than the header: treat as torn-at-birth, rewrite.
		return nil, 0, true, nil
	}
	if string(hdr) != header {
		return nil, 0, false, fmt.Errorf("journal: %s is not a dwarn journal", f.Name())
	}

	var recs []Record
	good := int64(len(header))
	var frame [8]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			// Clean EOF ends replay; a partial frame header is a torn tail.
			return recs, good, !errors.Is(err, io.EOF), nil
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 || n > maxRecordBytes {
			return recs, good, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return recs, good, true, nil
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return recs, good, true, nil
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return recs, good, true, nil
		}
		recs = append(recs, rec)
		good += int64(8 + len(payload))
	}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Replayed returns how many records Open recovered.
func (j *Journal) Replayed() int { return j.replayed }

// Torn reports whether Open found (and truncated) a torn tail.
func (j *Journal) Torn() bool { return j.torn }

// Appends returns the number of records appended since Open.
func (j *Journal) Appends() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// Append writes one record and flushes it to stable storage before
// returning. An error means the record may not survive a crash; the
// caller decides whether that fails the operation (sweep submission
// does: admitting work the journal cannot remember would silently
// reintroduce the bug this package exists to fix).
//
// Chaos seam: "journal.append" fires before the write; a handler
// returning chaos.ErrTorn makes Append persist a deliberately
// truncated frame without syncing — the on-disk state a crash between
// write and fsync leaves — and report failure.
func (j *Journal) Append(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("journal: record exceeds %d bytes", maxRecordBytes)
	}
	frame := appendFrame(make([]byte, 0, 8+len(payload)), payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := chaos.Fire("journal.append", rec.Type+":"+rec.ID); err != nil {
		if errors.Is(err, chaos.ErrTorn) {
			_, _ = j.f.Write(frame[:len(frame)/2])
		}
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.appends++
	return nil
}

// appendFrame appends one record frame: payload length and CRC-32C,
// both 4-byte little-endian, then the payload.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	return append(buf, payload...)
}

// Compact atomically replaces the log's contents with keep (typically
// the minimal record set for still-unfinished entries — an empty keep
// leaves just the header). The rewrite goes through store.WriteFile,
// the same temp file, fsync and rename discipline result and
// checkpoint puts use: a crash at any point leaves either the old
// complete log or the new complete log.
func (j *Journal) Compact(keep []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := chaos.Fire("journal.compact", j.path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	buf := []byte(header)
	for _, rec := range keep {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		buf = appendFrame(buf, payload)
	}
	if err := store.WriteFile(j.path, buf); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	// The open handle still points at the unlinked old file; reopen the
	// new one for further appends.
	f, err := os.OpenFile(j.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reopening after compact: %w", err)
	}
	j.f.Close()
	j.f = f
	return nil
}

// Close flushes and closes the log. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Entry is one submitted unit of work reconstructed from the log: a
// sweep or a run, its canonical cells, and its terminal state if it
// reached one.
type Entry struct {
	ID          string
	Kind        string
	SubmittedAt time.Time
	Cells       []spec.RunSpec
	// State is the terminal state from a finish record, "canceled" if
	// only a cancel record was seen, or "" for an unfinished entry —
	// the ones recovery resumes.
	State string
	// Error is the failure message of a failed entry.
	Error string
}

// Unfinished reports whether the entry needs recovery.
func (e *Entry) Unfinished() bool { return e.State == "" }

// Fold reduces a replayed record stream to its entries, in submission
// order. Records referencing an id with no submit record (possible
// after compaction raced a crash, or a pre-truncation submit) are
// dropped — there is nothing actionable to resume for them.
func Fold(recs []Record) []*Entry {
	byID := make(map[string]*Entry)
	var order []*Entry
	for _, rec := range recs {
		switch rec.Type {
		case TypeSubmit:
			if _, ok := byID[rec.ID]; ok {
				continue // duplicate submit: first wins
			}
			e := &Entry{
				ID:          rec.ID,
				Kind:        rec.Kind,
				SubmittedAt: rec.Time,
				Cells:       rec.Cells,
			}
			byID[rec.ID] = e
			order = append(order, e)
		case TypeFinish:
			if e, ok := byID[rec.ID]; ok {
				e.State = rec.State
				e.Error = rec.Error
			}
		case TypeCancel:
			if e, ok := byID[rec.ID]; ok && e.State == "" {
				e.State = "canceled"
			}
		}
	}
	return order
}

// Live re-derives the minimal record set that reproduces the
// unfinished entries — what Compact keeps on a clean shutdown (usually
// nothing: a drained server has no unfinished entries).
func Live(entries []*Entry) []Record {
	var out []Record
	for _, e := range entries {
		if !e.Unfinished() {
			continue
		}
		out = append(out, Record{
			Type:  TypeSubmit,
			ID:    e.ID,
			Kind:  e.Kind,
			Time:  e.SubmittedAt,
			Cells: e.Cells,
		})
	}
	return out
}
