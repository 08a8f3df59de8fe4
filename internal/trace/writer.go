package trace

import (
	"compress/gzip"
	"fmt"
	"io"

	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// Writer accumulates per-thread uop streams and serializes them as one
// trace file. Threads are registered with Record, which taps the
// stream: every correct-path uop it delivers to the pipeline is encoded
// as a side effect, a chunk at a time, so recording a live simulation
// is just tapping its streams. Wrong-path uops are deliberately not
// recorded — replay synthesizes them from the recorded metadata.
//
// A Writer is not safe for concurrent use; the simulator runs one CPU
// per goroutine, and all of a CPU's streams must be recorded by the
// same Writer from that goroutine.
type Writer struct {
	workload string
	seed     uint64
	threads  []*recording
}

// NewWriter starts an empty trace for the named workload. seed is
// informational (it lets `smttrace info` say where a trace came from);
// replay never re-derives streams from it.
func NewWriter(workloadName string, seed uint64) *Writer {
	return &Writer{workload: workloadName, seed: seed}
}

// Record registers s as the next thread and records every correct-path
// uop it delivers until it is stopped. Call it before the stream's
// first Next.
func (w *Writer) Record(s *workload.Stream) {
	r := &recording{meta: s.ReplayMeta()}
	w.threads = append(w.threads, r)
	s.Tap(r.append)
}

// WriteTo serializes the trace. It may be called once, after every
// recorded stream has been stopped.
func (w *Writer) WriteTo(dst io.Writer) (int64, error) {
	if len(w.threads) == 0 {
		return 0, fmt.Errorf("trace: no threads recorded")
	}
	cw := &countWriter{w: dst}
	if _, err := cw.Write([]byte(fileMagic)); err != nil {
		return cw.n, err
	}
	if _, err := cw.Write([]byte{fileVersion}); err != nil {
		return cw.n, err
	}

	gz := gzip.NewWriter(cw)
	var buf []byte
	buf = appendString(buf, w.workload)
	buf = appendUvarint(buf, w.seed)
	buf = appendUvarint(buf, uint64(len(w.threads)))
	if _, err := gz.Write(buf); err != nil {
		return cw.n, err
	}
	for _, t := range w.threads {
		hdr := appendMeta(nil, &t.meta)
		hdr = appendUvarint(hdr, t.count)
		hdr = appendUvarint(hdr, uint64(len(t.records)))
		if _, err := gz.Write(hdr); err != nil {
			return cw.n, err
		}
		if _, err := gz.Write(t.records); err != nil {
			return cw.n, err
		}
	}
	if err := gz.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// appendMeta serializes one thread's ReplayMeta.
func appendMeta(buf []byte, m *workload.ReplayMeta) []byte {
	buf = appendString(buf, m.Benchmark)
	buf = appendUvarint(buf, m.Base)
	buf = appendUvarint(buf, m.StartPC)
	for _, f := range []float64{m.LoadFrac, m.StoreFrac, m.BranchFrac, m.IntMulFrac, m.FPFrac, m.FarW, m.MidW} {
		buf = appendFloat(buf, f)
	}
	fp := m.Footprint
	buf = appendUvarint(buf, fp.CodeBase)
	buf = appendUvarint(buf, uint64(fp.CodeBytes))
	buf = appendUvarint(buf, fp.HotBase)
	buf = appendUvarint(buf, uint64(fp.HotBytes))
	buf = appendUvarint(buf, fp.MidBase)
	buf = appendUvarint(buf, uint64(fp.MidBytes))
	buf = appendUvarint(buf, uint64(len(m.BlockStarts)))
	prev := int32(0)
	for _, b := range m.BlockStarts {
		buf = appendUvarint(buf, uint64(b-prev)) // ascending, so deltas are non-negative
		prev = b
	}
	return buf
}

// countWriter counts bytes written through it.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// recording is one recorded thread's encoded uops.
type recording struct {
	meta    workload.ReplayMeta
	st      codecState
	records []byte
	count   uint64
}

// append encodes delivered uops; it is the recorded stream's tap.
func (r *recording) append(delivered []isa.Uop) {
	for i := range delivered {
		r.records = appendUop(r.records, &delivered[i], &r.st)
	}
	r.count += uint64(len(delivered))
}
