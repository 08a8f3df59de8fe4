package workload

import "dwarn/internal/isa"

// Producer writes a thread's correct-path uops, in stream order. The
// synthetic Generator and the trace decoder (internal/trace) are the
// two producers; a Stream turns either into a Source.
type Producer interface {
	// Fill overwrites buf with the next len(buf) correct-path uops.
	Fill(buf []isa.Uop)
}

// Chunking. A uop is 56 bytes, so a 512-uop chunk is 28 KiB: one chunk
// per thread inline, aheadChunks with read-ahead (84 KiB per thread,
// under 700 KiB for an 8-thread run). Larger chunks buy nothing once
// the handoff cost is amortized and show up in peak RSS.
const (
	chunkUops   = 512
	aheadChunks = 3
)

// Stream is the one Source implementation: a buffered consumer over a
// Producer's correct-path chunks. It derives wrong-path state from the
// uops it delivers (ReplayMeta.TrackUop) and owns the thread's
// WrongPathSynth, so live generation and trace replay share a single
// wrong-path derivation: the correct path is the only thing a producer
// supplies.
//
// Because Next is consumed strictly in fetch order and never rewound,
// the correct path does not depend on pipeline timing, and a producer
// can run ahead of the consumer. By default the stream fills each chunk
// inline when the previous one runs out; after ReadAhead, a producer
// goroutine fills chunks ahead of fetch, started on the first Next and
// ended by Stop. Either way the delivered stream is bit-identical.
//
// A Stream is used from one goroutine; only the producer it starts
// touches the Producer concurrently.
type Stream struct {
	buf []isa.Uop // current chunk; buf[pos:] not yet delivered
	pos int

	prod   Producer
	chunks uint64 // chunks drawn so far, each chunkUops long

	meta ReplayMeta
	st   WrongPathState
	wp   WrongPathSynth

	ahead bool       // ReadAhead was requested
	ra    *readAhead // the running producer, once started
}

// NewStream builds a stream over prod, whose stream meta describes.
// Wrong-path state starts zeroed, as at a fresh generator.
func NewStream(prod Producer, meta ReplayMeta) *Stream {
	s := &Stream{prod: prod, meta: meta}
	s.wp = NewWrongPathSynth(&s.meta)
	return s
}

var _ Source = (*Stream)(nil)

// Next implements Source.
func (s *Stream) Next() isa.Uop {
	if s.pos == len(s.buf) {
		s.refill()
	}
	u := &s.buf[s.pos]
	s.pos++
	s.meta.TrackUop(&s.st, u)
	return *u
}

// Delivered returns how many correct-path uops Next has returned.
func (s *Stream) Delivered() uint64 {
	return s.chunks*chunkUops - uint64(len(s.buf)-s.pos)
}

// refill replaces the drained chunk with the next one.
func (s *Stream) refill() {
	s.chunks++
	s.pos = 0
	if !s.ahead {
		if s.buf == nil {
			s.buf = make([]isa.Uop, chunkUops)
		}
		s.prod.Fill(s.buf)
		return
	}
	if s.ra == nil {
		s.ra = startReadAhead(s.prod)
	} else {
		s.ra.free <- s.buf
	}
	s.buf = <-s.ra.full
}

// ReadAhead hands chunk filling to a producer goroutine, started on the
// first Next. Call it before the first Next; the caller must Stop the
// stream when done with it.
func (s *Stream) ReadAhead() {
	if s.chunks == 0 {
		s.ahead = true
	}
}

// Stop ends the read-ahead producer, if one is running, and waits for
// it to exit. The stream must not be used afterwards. Stop is safe to
// call more than once and on streams that never read ahead.
func (s *Stream) Stop() {
	if s.ra != nil {
		close(s.ra.stop)
		<-s.ra.done
		s.ra = nil
	}
}

// readAhead is one running producer goroutine and the chunks it cycles
// through: it takes a drained chunk from free, fills it, and sends it
// on full; the consumer returns each chunk to free once delivered. Both
// channels are buffered to aheadChunks, the number of chunks, so no
// send on them ever blocks.
type readAhead struct {
	full, free chan []isa.Uop
	stop       chan struct{} // closed by Stop
	done       chan struct{} // closed when the producer exits
}

func startReadAhead(p Producer) *readAhead {
	ra := &readAhead{
		full: make(chan []isa.Uop, aheadChunks),
		free: make(chan []isa.Uop, aheadChunks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	back := make([]isa.Uop, aheadChunks*chunkUops)
	for i := 0; i < aheadChunks; i++ {
		ra.free <- back[i*chunkUops : (i+1)*chunkUops : (i+1)*chunkUops]
	}
	go ra.produce(p)
	return ra
}

// produce is the producer goroutine. It owns p until it exits, which it
// does only between fills, so p is never left mid-chunk.
func (ra *readAhead) produce(p Producer) {
	defer close(ra.done)
	for {
		var buf []isa.Uop
		select {
		case buf = <-ra.free:
		case <-ra.stop:
			return
		}
		p.Fill(buf)
		select {
		case ra.full <- buf:
		case <-ra.stop:
			return
		}
	}
}

// StartPC implements Source.
func (s *Stream) StartPC() uint64 { return s.meta.StartPC }

// StartWrongPath implements Source, priming the synthesizer with the
// state tracked over the delivered correct path.
func (s *Stream) StartWrongPath(salt, startPC uint64) {
	s.wp.Start(salt, startPC, s.st)
}

// WrongPathPC implements Source; see WrongPathSynth.PCAfterMispredict.
func (s *Stream) WrongPathPC(u *isa.Uop, predictedTaken bool) uint64 {
	return s.wp.PCAfterMispredict(u, predictedTaken)
}

// NextWrongPath implements Source.
func (s *Stream) NextWrongPath() isa.Uop { return s.wp.Next() }

// Footprint implements Source.
func (s *Stream) Footprint() Footprint { return s.meta.Footprint }

// ReplayMeta implements Source.
func (s *Stream) ReplayMeta() ReplayMeta { return s.meta }
