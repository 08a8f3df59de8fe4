package trace

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"

	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// DefaultMaxPayload caps the decompressed payload Read will accept, so
// a hostile upload cannot decompression-bomb the service.
const DefaultMaxPayload = 1 << 30

// Trace is a fully loaded, validated uop trace. It is immutable after
// Read and safe for concurrent use: replay streams share the decoded
// record bytes read-only and keep all mutable state to themselves, so
// one uploaded trace can back many simultaneous simulations.
type Trace struct {
	// Workload is the recorded workload's name; Seed the seed the
	// recording run used (informational — replay never re-derives).
	Workload string
	Seed     uint64
	// Digest is the hex SHA-256 of the trace file bytes: the trace's
	// content address, folded into sim.Fingerprint for cache identity.
	Digest string
	// Threads holds one recorded stream per hardware context.
	Threads []Thread
}

// Thread is one recorded per-thread stream.
type Thread struct {
	// Meta reconstructs the thread's wrong-path synthesizer.
	Meta workload.ReplayMeta
	// Uops is the number of recorded correct-path uops.
	Uops uint64
	// records holds the encoded uop stream (validated at load).
	records []byte
}

// Benchmarks returns the per-thread benchmark names, in thread order.
func (t *Trace) Benchmarks() []string {
	out := make([]string, len(t.Threads))
	for i := range t.Threads {
		out[i] = t.Threads[i].Meta.Benchmark
	}
	return out
}

// Uops returns the total recorded uop count across threads.
func (t *Trace) Uops() uint64 {
	var n uint64
	for i := range t.Threads {
		n += t.Threads[i].Uops
	}
	return n
}

// PayloadBytes returns the trace's in-memory footprint: the decoded
// record bytes plus the block tables (stores use it for capacity
// accounting).
func (t *Trace) PayloadBytes() int64 {
	var n int64
	for i := range t.Threads {
		n += int64(len(t.Threads[i].records)) + int64(len(t.Threads[i].Meta.BlockStarts))*4
	}
	return n
}

// Streams returns fresh replay streams, one per thread, each starting
// at the beginning of its recording. Call once per simulation.
//
// A replay stream is a workload.Stream over the thread's record
// decoder. The decoder supplies only the correct path; the Stream
// derives wrong-path state from the delivered uops and synthesizes
// episodes with the same WrongPathSynth a live run uses — so a replayed
// simulation is bit-identical to the live run it was recorded from,
// under any fetch policy. A stream that exhausts its recording wraps to
// the beginning (keeping its counters and cursors), so an
// under-provisioned trace degrades gracefully instead of crashing a
// long simulation.
func (t *Trace) Streams() []*workload.Stream {
	out := make([]*workload.Stream, len(t.Threads))
	for i := range t.Threads {
		th := &t.Threads[i]
		out[i] = workload.NewStream(&uopDecoder{th: th}, th.Meta)
	}
	return out
}

// ReadFile loads and validates a trace file.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, 0)
}

// Read loads and validates a trace from r. maxPayload caps the
// decompressed payload size (0 means DefaultMaxPayload). Every record
// of every thread is decoded once here, so a Trace that loads without
// error can never fail mid-replay.
func Read(r io.Reader, maxPayload int64) (*Trace, error) {
	if maxPayload <= 0 {
		maxPayload = DefaultMaxPayload
	}
	h := sha256.New()
	raw := io.TeeReader(r, h)

	hdr := make([]byte, len(fileMagic)+1)
	if _, err := io.ReadFull(raw, hdr); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if string(hdr[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a trace file)", hdr[:len(fileMagic)])
	}
	if hdr[len(fileMagic)] != fileVersion {
		return nil, fmt.Errorf("trace: unsupported version %d (want %d)", hdr[len(fileMagic)], fileVersion)
	}

	gz, err := gzip.NewReader(raw)
	if err != nil {
		return nil, fmt.Errorf("trace: corrupt gzip frame: %w", err)
	}
	payload, err := io.ReadAll(io.LimitReader(gz, maxPayload+1))
	if err != nil {
		return nil, fmt.Errorf("trace: corrupt payload: %w", err)
	}
	if int64(len(payload)) > maxPayload {
		return nil, fmt.Errorf("trace: payload exceeds %d bytes", maxPayload)
	}
	if err := gz.Close(); err != nil {
		return nil, fmt.Errorf("trace: corrupt gzip frame: %w", err)
	}

	d := &decoder{data: payload}
	t := &Trace{}
	t.Workload = d.str()
	t.Seed = d.uvarint()
	n := d.uvarint()
	if d.err == nil && (n == 0 || n > maxThreads) {
		return nil, fmt.Errorf("trace: implausible thread count %d", n)
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		th, err := d.thread()
		if err != nil {
			return nil, fmt.Errorf("trace: thread %d: %w", i, err)
		}
		t.Threads = append(t.Threads, th)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(payload) {
		return nil, fmt.Errorf("trace: %d trailing bytes", len(payload)-d.pos)
	}
	t.Digest = hex.EncodeToString(h.Sum(nil))
	return t, nil
}

// decoder is a cursor over the decompressed payload.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("trace: "+format, args...)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.fail("truncated varint at offset %d", d.pos)
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > maxStringLen || d.pos+int(n) > len(d.data) {
		d.fail("implausible string length %d", n)
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.pos+8 > len(d.data) {
		d.fail("truncated float at offset %d", d.pos)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.pos:]))
	d.pos += 8
	return v
}

// thread decodes one thread's metadata and validates its record bytes
// by decoding every record once.
func (d *decoder) thread() (Thread, error) {
	var th Thread
	m := &th.Meta
	m.Benchmark = d.str()
	m.Base = d.uvarint()
	m.StartPC = d.uvarint()
	for _, dst := range []*float64{&m.LoadFrac, &m.StoreFrac, &m.BranchFrac, &m.IntMulFrac, &m.FPFrac, &m.FarW, &m.MidW} {
		*dst = d.float()
	}
	m.Footprint.CodeBase = d.uvarint()
	m.Footprint.CodeBytes = int(d.uvarint())
	m.Footprint.HotBase = d.uvarint()
	m.Footprint.HotBytes = int(d.uvarint())
	m.Footprint.MidBase = d.uvarint()
	m.Footprint.MidBytes = int(d.uvarint())
	nb := d.uvarint()
	if d.err == nil && (nb == 0 || nb > maxBlockStarts) {
		return th, fmt.Errorf("implausible block count %d", nb)
	}
	if d.err == nil {
		m.BlockStarts = make([]int32, 0, nb)
		prev := int32(0)
		for i := uint64(0); i < nb && d.err == nil; i++ {
			prev += int32(d.uvarint())
			m.BlockStarts = append(m.BlockStarts, prev)
		}
	}
	th.Uops = d.uvarint()
	recLen := d.uvarint()
	if d.err != nil {
		return th, d.err
	}
	if th.Uops == 0 || recLen == 0 {
		// An empty recording would make its replay stream wrap
		// forever without ever producing a uop.
		return th, fmt.Errorf("empty uop stream")
	}
	if th.Uops > maxUopsPerThread || recLen > uint64(len(d.data)-d.pos) {
		return th, fmt.Errorf("truncated records (%d declared bytes, %d remain)", recLen, len(d.data)-d.pos)
	}
	// Footprint bounds: wrong-path synthesis samples within the hot and
	// mid regions (zero sizes would divide by zero mid-replay), and the
	// simulator pre-touches every declared line before the first cycle —
	// an absurdly large declared region would wedge that loop, so cap
	// all three well above anything a real generator emits.
	fpt := m.Footprint
	if fpt.HotBytes < lineBytesMin || fpt.MidBytes < lineBytesMin || fpt.CodeBytes < 0 ||
		fpt.CodeBytes > maxFootprintBytes || fpt.HotBytes > maxFootprintBytes || fpt.MidBytes > maxFootprintBytes {
		return th, fmt.Errorf("implausible footprint %+v", fpt)
	}
	th.records = d.data[d.pos : d.pos+int(recLen)]
	d.pos += int(recLen)

	// Validation pass: every record must decode and the count must
	// match, so replay can run panic-free on the hot path.
	var st codecState
	var u isa.Uop
	pos := 0
	for i := uint64(0); i < th.Uops; i++ {
		n, err := decodeUop(th.records[pos:], &st, &u)
		if err != nil {
			return th, fmt.Errorf("record %d: %w", i, err)
		}
		pos += n
	}
	if pos != len(th.records) {
		return th, fmt.Errorf("record bytes mismatch: %d decoded, %d stored", pos, len(th.records))
	}
	return th, nil
}

// lineBytesMin guards the wrong-path address sampler's modular
// arithmetic (hot/mid sampling divides by the region size in lines).
const lineBytesMin = 64

// maxUopsPerThread bounds a single thread's declared record count.
const maxUopsPerThread = 1 << 32

// maxFootprintBytes caps each declared memory region (64 MiB — real
// calibrated profiles stay under 256 KiB). The simulator pre-touches
// every declared line, so an unbounded region would turn prewarming
// into an unkillable multi-year loop on a hostile upload.
const maxFootprintBytes = 64 << 20

// uopDecoder is the workload.Producer over one recorded thread: it
// decodes records in order, numbering them, and wraps at the end (delta
// state restarts, sequence numbers continue).
type uopDecoder struct {
	th  *Thread
	st  codecState
	pos int
	seq uint64
}

// Fill implements workload.Producer.
func (d *uopDecoder) Fill(buf []isa.Uop) {
	for i := range buf {
		if d.pos >= len(d.th.records) {
			d.pos = 0
			d.st = codecState{}
		}
		n, err := decodeUop(d.th.records[d.pos:], &d.st, &buf[i])
		if err != nil {
			// Unreachable for traces loaded through Read, which validates
			// every record.
			panic(fmt.Sprintf("trace: corrupt record at offset %d: %v", d.pos, err))
		}
		d.pos += n
		buf[i].Seq = d.seq
		d.seq++
	}
}
