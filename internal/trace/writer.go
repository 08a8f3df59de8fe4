package trace

import (
	"compress/gzip"
	"fmt"
	"io"

	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// Writer accumulates per-thread uop streams and serializes them as one
// trace file. Threads are registered with Record, which returns a
// pass-through workload.Source: every correct-path uop flowing to the
// pipeline is encoded as a side effect, so recording a live simulation
// is just wrapping its sources. Wrong-path uops are deliberately not
// recorded — replay synthesizes them from the recorded metadata.
//
// A Writer is not safe for concurrent use; the simulator runs one CPU
// per goroutine, and all of a CPU's sources must be recorded by the
// same Writer from that goroutine.
type Writer struct {
	workload string
	seed     uint64
	threads  []*recorder
}

// NewWriter starts an empty trace for the named workload. seed is
// informational (it lets `smttrace info` say where a trace came from);
// replay never re-derives streams from it.
func NewWriter(workloadName string, seed uint64) *Writer {
	return &Writer{workload: workloadName, seed: seed}
}

// Record registers src as the next thread and returns a wrapper that
// records every correct-path uop it delivers.
func (w *Writer) Record(src workload.Source) workload.Source {
	meta := src.ReplayMeta()
	r := &recorder{src: src, meta: meta}
	w.threads = append(w.threads, r)
	return r
}

// Uops returns the number of uops recorded so far for thread t.
func (w *Writer) Uops(t int) uint64 { return w.threads[t].count }

// WriteTo serializes the trace. It may be called once, after the
// recorded run completes.
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

// recorder is the pass-through Source wrapping one recorded thread.
type recorder struct {
	src     workload.Source
	meta    workload.ReplayMeta
	st      codecState
	records []byte
	count   uint64
}

// Next records and forwards the next correct-path uop.
func (r *recorder) Next(dst *isa.Uop) {
	r.src.Next(dst)
	r.records = appendUop(r.records, dst, &r.st)
	r.count++
}

// The remaining Source methods delegate untouched: wrong paths are
// synthesized identically at replay, so recording them would only
// bloat the trace.
func (r *recorder) StartPC() uint64                     { return r.src.StartPC() }
func (r *recorder) StartWrongPath(salt, startPC uint64) { r.src.StartWrongPath(salt, startPC) }
func (r *recorder) WrongPathPC(u *isa.Uop, predictedTaken bool) uint64 {
	return r.src.WrongPathPC(u, predictedTaken)
}
func (r *recorder) NextWrongPath(dst *isa.Uop)      { r.src.NextWrongPath(dst) }
func (r *recorder) Footprint() workload.Footprint   { return r.src.Footprint() }
func (r *recorder) ReplayMeta() workload.ReplayMeta { return r.meta }
