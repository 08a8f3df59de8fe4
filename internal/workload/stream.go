package workload

import (
	"dwarn/internal/bufpool"
	"dwarn/internal/isa"
)

// Producer writes a thread's correct-path uops, in stream order. The
// synthetic Generator, a shared tape's reader (tape.go) and the trace
// decoder (internal/trace) are the producers; a Stream delivers any of
// them to the pipeline.
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

// chunkPool recycles stream buffers: one-chunk inline buffers and
// aheadChunks-long read-ahead backings, keyed by length. Stop returns
// a stream's buffers.
var chunkPool bufpool.Slices[isa.Uop]

// getChunks returns a cleared buffer of n chunks from chunkPool.
func getChunks(n int) []isa.Uop {
	buf := chunkPool.Get(n * chunkUops)
	clear(buf)
	return buf
}

// Stream delivers one thread's dynamic uop stream to the pipeline: a
// buffered consumer over a Producer's correct-path chunks. It derives
// wrong-path state from the uops it delivers (pathTracker) and owns the
// thread's WrongPathSynth, so live generation and trace replay share a
// single wrong-path derivation: the correct path is the only thing a
// producer supplies. Wrong-path uops are deterministic per episode, so
// replays reproduce them bit-identically.
//
// Because Next is consumed strictly in fetch order and never rewound (a
// policy that squashes and re-fetches buffers uops itself), the correct
// path does not depend on pipeline timing, and a producer can run ahead
// of the consumer. By default the stream fills each chunk
// inline when the previous one runs out; after ReadAhead, a producer
// goroutine fills chunks ahead of fetch, started on the first Next and
// ended by Stop. A stream over a shared tape decodes the tape inline
// even then, and starts its producer only once it has left the tape
// and generates privately. Either way the delivered stream is
// bit-identical.
//
// A Stream is used from one goroutine; only the producer it starts
// touches the Producer concurrently.
type Stream struct {
	buf []isa.Uop // current chunk; buf[pos:] not yet delivered
	pos int

	prod   Producer
	chunks uint64 // chunks drawn so far, each chunkUops long

	meta ReplayMeta
	path pathTracker
	wp   WrongPathSynth

	ahead bool       // ReadAhead was requested
	ra    *readAhead // the running producer, once started

	tap func(delivered []isa.Uop) // set by Tap; nil when not recording
}

// NewStream builds a stream over prod, whose stream meta describes.
// Wrong-path state starts zeroed, as at a fresh generator.
func NewStream(prod Producer, meta ReplayMeta) *Stream {
	s := &Stream{prod: prod, meta: meta}
	s.wp = NewWrongPathSynth(&s.meta)
	return s
}

// Next writes the next correct-path uop to dst: the uop is copied once,
// from the chunk to dst.
func (s *Stream) Next(dst *isa.Uop) {
	if s.pos == len(s.buf) {
		s.refill()
	}
	u := &s.buf[s.pos]
	s.pos++
	s.meta.track(&s.path, u)
	*dst = *u
}

// Delivered returns how many correct-path uops Next has returned.
func (s *Stream) Delivered() uint64 {
	return s.chunks*chunkUops - uint64(len(s.buf)-s.pos)
}

// Tap hands every correct-path uop the stream delivers to f, in order:
// each chunk once Next has moved past it, and the delivered part of the
// last one at Stop. It costs nothing per uop. Call it before the first
// Next; f must not keep the slice.
func (s *Stream) Tap(f func(delivered []isa.Uop)) { s.tap = f }

// refill replaces the drained chunk with the next one.
func (s *Stream) refill() {
	if s.tap != nil && s.buf != nil {
		s.tap(s.buf)
	}
	s.chunks++
	s.pos = 0
	if s.ra == nil {
		if !s.ahead || s.onTape() {
			if s.buf == nil {
				s.buf = getChunks(1)
			}
			s.prod.Fill(s.buf)
			return
		}
		chunkPool.Put(s.buf) // the inline buffer of a stream that left its tape
		s.ra = startReadAhead(s.prod)
	} else {
		s.ra.free <- s.buf
	}
	s.buf = <-s.ra.full
}

// onTape reports whether the stream still reads a shared tape. Reading
// a tape ahead buys nothing and costs buffers per stream; once off the
// tape the reader generates privately, and a read-ahead stream then
// hands it to a producer goroutine like any private generator.
func (s *Stream) onTape() bool {
	r, ok := s.prod.(*tapeReader)
	return ok && r.gen == nil
}

// ReadAhead hands chunk filling to a producer goroutine, started on the
// first Next. Call it before the first Next; the caller must Stop the
// stream when done with it.
func (s *Stream) ReadAhead() {
	if s.chunks == 0 {
		s.ahead = true
	}
}

// Stop taps the delivered part of the current chunk, ends the
// read-ahead producer, if one is running, waits for it to exit, and
// returns the stream's buffers to chunkPool. The stream must not be
// used afterwards. Stop is safe to call more than once and on streams
// that never read ahead.
func (s *Stream) Stop() {
	if s.tap != nil {
		s.tap(s.buf[:s.pos])
		s.tap = nil
	}
	if s.ra != nil {
		close(s.ra.stop)
		<-s.ra.done
		chunkPool.Put(s.ra.back)
		s.ra = nil
	} else {
		chunkPool.Put(s.buf)
	}
	s.buf = nil
}

// readAhead is one running producer goroutine and the chunks it cycles
// through: it takes a drained chunk from free, fills it, and sends it
// on full; the consumer returns each chunk to free once delivered. Both
// channels are buffered to aheadChunks, the number of chunks, so no
// send on them ever blocks.
type readAhead struct {
	back       []isa.Uop // the aheadChunks chunks, back to back
	full, free chan []isa.Uop
	stop       chan struct{} // closed by Stop
	done       chan struct{} // closed when the producer exits
}

func startReadAhead(p Producer) *readAhead {
	ra := &readAhead{
		back: getChunks(aheadChunks),
		full: make(chan []isa.Uop, aheadChunks),
		free: make(chan []isa.Uop, aheadChunks),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := 0; i < aheadChunks; i++ {
		ra.free <- ra.back[i*chunkUops : (i+1)*chunkUops : (i+1)*chunkUops]
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

// StartPC is the first instruction's address.
func (s *Stream) StartPC() uint64 { return s.meta.StartPC }

// StartWrongPath (re)seeds the wrong-path stream for a new
// misprediction episode, priming the synthesizer with the state tracked
// over the delivered correct path. salt identifies the episode (the
// branch's sequence number) and startPC is where fetch wrongly
// redirected.
func (s *Stream) StartWrongPath(salt, startPC uint64) {
	s.wp.Start(salt, startPC, s.meta.state(&s.path))
}

// WrongPathPC returns the PC the front end runs off to after
// mispredicting branch u; see WrongPathSynth.PCAfterMispredict.
func (s *Stream) WrongPathPC(u *isa.Uop, predictedTaken bool) uint64 {
	return s.wp.PCAfterMispredict(u, predictedTaken)
}

// NextWrongPath writes the next wrong-path uop to dst.
func (s *Stream) NextWrongPath(dst *isa.Uop) { s.wp.Next(dst) }

// Footprint describes the thread's memory regions for pre-warming.
func (s *Stream) Footprint() Footprint { return s.meta.Footprint }

// ReplayMeta is everything a trace must record to replay the stream,
// wrong paths included, byte-exactly.
func (s *Stream) ReplayMeta() ReplayMeta { return s.meta }
