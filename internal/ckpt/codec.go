package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"dwarn/internal/workload"
)

// Format framing: an 8-byte magic that doubles as the version tag, a
// little-endian payload, and a trailing CRC-32C over everything before
// it. Bumping the format means bumping the magic, which makes every
// stale on-disk checkpoint an automatic miss — no migration path
// needed, because a checkpoint is always reproducible from a cold
// start. A change to program synthesis or calibration must bump it too:
// a regenerated program that no longer matches its digest is only a
// miss, but a change to calibration alone would apply stale regions.
const (
	magic = "DWCKPT03"
	// MaxEncoded bounds what Decode will even look at: far above any
	// real image, far below a memory-exhaustion payload.
	MaxEncoded = 64 << 20
	// maxThreads bounds an image's thread count, far above any
	// machine's hardware contexts, so a forged count cannot make Decode
	// regenerate programs without end.
	maxThreads = 256
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type writer struct{ b []byte }

func (w *writer) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *writer) u64(v uint64)     { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) f64(v float64)    { w.u64(math.Float64bits(v)) }
func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// regions writes a region count and the regions, packed four to a
// byte, two bits each, low bits first.
func (w *writer) regions(rs []uint8) {
	w.uvarint(uint64(len(rs)))
	at := len(w.b)
	w.b = append(w.b, make([]byte, (len(rs)+3)/4)...)
	for i, r := range rs {
		w.b[at+i/4] |= r << (2 * (i % 4))
	}
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

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail("cut or overlong varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) str() string  { return string(r.take(r.count(1))) }

// count reads a length prefix and validates it against the bytes
// actually remaining (elemBytes is a lower bound per element), so a
// corrupt length can never drive a giant allocation.
func (r *reader) count(elemBytes int) int {
	n := r.uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)-r.off)/uint64(elemBytes) {
		r.fail("length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// regions reads what writer.regions wrote; the last byte's unused bits
// must be 0.
func (r *reader) regions() []uint8 {
	n := r.uvarint()
	if r.err == nil && n > 4*uint64(len(r.b)-r.off) {
		r.fail("%d regions exceed remaining payload", n)
	}
	packed := r.take(int(n+3) / 4)
	if r.err != nil {
		return nil
	}
	out := make([]uint8, n)
	for i := range out {
		out[i] = packed[i/4] >> (2 * (i % 4)) & 3
	}
	if n%4 != 0 && packed[len(packed)-1]>>(2*(n%4)) != 0 {
		r.fail("nonzero padding after the last region")
	}
	return out
}

// threadBytes is the least a thread's record can encode to: a one-byte
// name with its length, the fixed seed and digest, one-byte base and
// region count, and the eight adjustment words.
const threadBytes = 2 + 8 + 1 + 8 + 1 + 8*8

// Encode serializes an image into the versioned, checksummed wire/disk
// format: each core's compact Calibration.
func Encode(img *Image) []byte {
	cals := make([]workload.Calibration, len(img.Cores))
	for i, c := range img.Cores {
		cals[i] = c.Calibration()
	}
	return encode(img.Key, cals)
}

func encode(key string, cals []workload.Calibration) []byte {
	w := &writer{b: make([]byte, 0, 64+len(key)+len(cals)*2048)}
	w.b = append(w.b, magic...)
	w.str(key)
	w.uvarint(uint64(len(cals)))
	for i := range cals {
		cal := &cals[i]
		w.str(cal.Benchmark)
		w.u64(cal.Seed)
		w.uvarint(cal.Base)
		w.u64(cal.Digest)
		w.regions(cal.Regions)
		for _, a := range []workload.RegionAdjust{cal.Load, cal.Store} {
			w.f64(a.PFar)
			w.f64(a.PMid)
			w.f64(a.LeakFar)
			w.f64(a.LeakMid)
		}
	}
	w.b = binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli))
	return w.b
}

// Decode parses and verifies an encoded checkpoint and rebuilds its
// cores. Any defect — bad magic, truncation, a checksum mismatch, a
// malformed field, a program that no longer matches its digest —
// returns an error; callers treat it as a miss and calibrate cold.
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
	key := r.str()
	threads := r.count(threadBytes)
	if threads > maxThreads {
		r.fail("%d threads exceed the %d-thread limit", threads, maxThreads)
		threads = 0
	}
	cals := make([]workload.Calibration, threads)
	for i := range cals {
		if r.err != nil {
			break
		}
		cal := &cals[i]
		cal.Benchmark = r.str()
		cal.Seed = r.u64()
		cal.Base = r.uvarint()
		cal.Digest = r.u64()
		cal.Regions = r.regions()
		for _, a := range []*workload.RegionAdjust{&cal.Load, &cal.Store} {
			a.PFar, a.PMid, a.LeakFar, a.LeakMid = r.f64(), r.f64(), r.f64(), r.f64()
		}
	}
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d trailing bytes after payload", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}

	// Each thread's program regenerates independently, so the rebuilds
	// run concurrently, each into its own slot.
	img := &Image{Key: key, Cores: make([]*workload.Core, len(cals))}
	errs := make([]error, len(cals))
	var wg sync.WaitGroup
	for i := range cals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			img.Cores[i], errs[i] = cals[i].Core()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("ckpt: thread %d: %w", i, err)
		}
	}
	return img, nil
}
