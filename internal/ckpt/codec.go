package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"dwarn/internal/mem/cache"
	"dwarn/internal/mem/tlb"
	"dwarn/internal/workload"
)

// Format framing: an 8-byte magic that doubles as the version tag, a
// little-endian payload, and a trailing CRC-32C over everything before
// it. Bumping the format means bumping the magic, which makes every
// stale on-disk checkpoint an automatic miss — no migration path
// needed, because a checkpoint is always reproducible from a cold
// start.
const (
	magic = "DWCKPT02"
	// MaxEncoded bounds what Decode will even look at (and what the
	// fabric accepts over HTTP): far above any real machine config,
	// far below a memory-exhaustion payload.
	MaxEncoded = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type writer struct{ b []byte }

func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}

// reader decodes with a sticky error: after the first failure every
// further read returns zero values, and the caller checks err once.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("ckpt: "+format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail("truncated at offset %d (need %d bytes)", r.off, n)
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}
func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}
func (r *reader) i64() int64  { return int64(r.u64()) }
func (r *reader) i32() int32  { return int32(r.u32()) }
func (r *reader) str() string { return string(r.take(r.count(1))) }

// bytes reads a length-prefixed byte string into a slice of its own,
// so an image never pins the buffer it was decoded from.
func (r *reader) bytes() []byte { return append([]byte(nil), r.take(r.count(1))...) }

// check records the error of validating a decoded field, unless an
// earlier defect already stands (the field is then zero and invalid).
func (r *reader) check(err error) {
	if r.err == nil && err != nil {
		r.err = fmt.Errorf("ckpt: %w", err)
	}
}

// count reads a length prefix and validates it against the bytes
// actually remaining (elemSize is a lower bound per element), so a
// corrupt length can never drive a giant allocation.
func (r *reader) count(elemSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || n*elemSize > len(r.b)-r.off {
		r.fail("length %d exceeds remaining payload", n)
		return 0
	}
	return n
}

// Encode serializes an image into the versioned, checksummed wire/disk
// format.
func Encode(img *Image) []byte {
	w := &writer{b: make([]byte, 0, img.ApproxBytes())}
	w.b = append(w.b, magic...)
	w.str(img.Key)
	w.u64(img.Seed)

	w.i64(img.Core.Now)
	w.u64(img.Core.AgeCtr)
	w.i64(img.Core.LastCommitAt)
	w.u32(uint32(img.Core.NumThreads))

	encodeCache(w, &img.L1I)
	encodeCache(w, &img.L1D)
	encodeCache(w, &img.L2)

	w.u32(uint32(len(img.DTLB)))
	for i := range img.DTLB {
		t := &img.DTLB[i]
		w.u32(uint32(t.Size))
		w.i64(t.Clock)
		w.bytes(t.Packed)
	}

	b := &img.Bpred
	w.bytes(b.PHT)
	w.u32(uint32(b.BTBSets))
	w.u32(uint32(b.BTBWays))
	w.i64(b.BTBClock)
	w.bytes(b.BTB)
	w.u32(uint32(len(b.History)))
	for _, h := range b.History {
		w.u32(h)
	}
	w.u32(uint32(len(b.RAS)))
	for _, ras := range b.RAS {
		w.u32(uint32(len(ras)))
		for _, v := range ras {
			w.u64(v)
		}
	}
	w.u32(uint32(len(b.RASTop)))
	for _, t := range b.RASTop {
		w.i64(int64(t))
	}

	w.u32(uint32(len(img.Sources)))
	for _, s := range img.Sources {
		w.u64(s.RNG)
		w.u64(s.Seq)
		w.i32(s.CurSlot)
		w.u64(s.IntWrites)
		w.u64(s.FPWrites)
		w.u64(s.MidCursor)
		w.u64(s.FarCursor)
		w.i32(s.WalkCur)
		w.i32(s.WalkDwell)
	}

	w.u32(crc32.Checksum(w.b, castagnoli))
	return w.b
}

// Decode parses and verifies an encoded checkpoint. Any defect — bad
// magic, truncation, a checksum mismatch, an internal inconsistency —
// returns an error; callers treat it as a miss and start cold.
func Decode(data []byte) (*Image, error) {
	if len(data) > MaxEncoded {
		return nil, fmt.Errorf("ckpt: %d bytes exceeds the %d-byte limit", len(data), MaxEncoded)
	}
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("ckpt: bad magic (not a %s checkpoint)", magic)
	}
	body, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != sum {
		return nil, fmt.Errorf("ckpt: checksum mismatch (stored %08x, computed %08x)", sum, got)
	}

	r := &reader{b: body, off: len(magic)}
	img := &Image{}
	img.Key = r.str()
	img.Seed = r.u64()

	img.Core.Now = r.i64()
	img.Core.AgeCtr = r.u64()
	img.Core.LastCommitAt = r.i64()
	img.Core.NumThreads = int(r.u32())

	decodeCache(r, &img.L1I)
	decodeCache(r, &img.L1D)
	decodeCache(r, &img.L2)

	img.DTLB = make([]tlb.State, r.count(16))
	for i := range img.DTLB {
		t := &img.DTLB[i]
		t.Size = int(r.u32())
		t.Clock = r.i64()
		t.Packed = r.bytes()
		r.check(t.Validate())
	}

	b := &img.Bpred
	b.PHT = r.bytes()
	b.BTBSets = int(r.u32())
	b.BTBWays = int(r.u32())
	b.BTBClock = r.i64()
	b.BTB = r.bytes()
	r.check(b.ValidateBTB())
	b.History = make([]uint32, r.count(4))
	for i := range b.History {
		b.History[i] = r.u32()
	}
	b.RAS = make([][]uint64, r.count(4))
	for i := range b.RAS {
		b.RAS[i] = make([]uint64, r.count(8))
		for j := range b.RAS[i] {
			b.RAS[i][j] = r.u64()
		}
	}
	b.RASTop = make([]int, r.count(8))
	for i := range b.RASTop {
		b.RASTop[i] = int(r.i64())
	}

	img.Sources = make([]workload.SourceState, r.count(60))
	for i := range img.Sources {
		img.Sources[i] = workload.SourceState{
			RNG:       r.u64(),
			Seq:       r.u64(),
			CurSlot:   r.i32(),
			IntWrites: r.u64(),
			FPWrites:  r.u64(),
			MidCursor: r.u64(),
			FarCursor: r.u64(),
			WalkCur:   r.i32(),
			WalkDwell: r.i32(),
		}
	}

	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after payload", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return img, nil
}

func encodeCache(w *writer, s *cache.State) {
	w.u32(uint32(s.Sets))
	w.u32(uint32(s.Ways))
	w.i64(s.UseClock)
	w.bytes(s.Packed)
}

func decodeCache(r *reader, s *cache.State) {
	s.Sets = int(r.u32())
	s.Ways = int(r.u32())
	s.UseClock = r.i64()
	s.Packed = r.bytes()
	r.check(s.Validate())
}
