package workload

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"dwarn/internal/isa"
)

// The tape. Every policy cell of a (workload, seed) group fetches the
// same correct path, so a group can generate it once: a tape is one
// thread's correct path as an append-only log of packed records, filled
// chunk by chunk by a single generator under a lock and read by any
// number of streams, each decoding a chunk at a time into its own
// buffer. A TapeSet holds a group's tapes, one per thread; a TapeBudget
// bounds the bytes all of an owner's sets retain.

// record is one correct-path uop on a tape: 16 bytes against an
// isa.Uop's 56. Seq is the record's index on the tape, and PC, address
// and branch target are 32-bit offsets from the thread's address base:
// a thread's code, hot, mid and far regions all lie within its first
// 2 GiB (the far stream wraps at farOffset+farRegion = 2 GiB), so every
// address a generator produces fits. aux is the data address of a load
// or store and the target of a branch, zero otherwise.
type record struct {
	pc               uint32
	aux              uint32
	class            isa.Class
	dest, src1, src2 int8
	taken            bool
}

const (
	recordBytes = int64(unsafe.Sizeof(record{}))
	chunkBytes  = chunkUops * recordBytes // 8 KiB
)

// TapeBytes bounds the chunk bytes a TapeBudget lets its tapes retain:
// 1,024 chunks, under the checkpoint memory tier's 12 MB. A reader that
// finds it spent leaves its tape (see tape).
const TapeBytes = 8 << 20

// offset32 returns v - base, panicking when v is not within 4 GiB above
// base: a generator that produced such an address has broken the
// address-space layout the record format relies on.
func offset32(v, base uint64, what string) uint32 {
	off := v - base
	if v < base || off > math.MaxUint32 {
		panic(fmt.Sprintf("workload: tape: %s %#x is not within 4 GiB above the thread base %#x", what, v, base))
	}
	return uint32(off)
}

// pack encodes correct-path uop u of the thread based at base.
func pack(u *isa.Uop, base uint64) record {
	r := record{
		pc:    offset32(u.PC, base, "pc"),
		class: u.Class,
		dest:  int8(u.Dest),
		src1:  int8(u.Src1),
		src2:  int8(u.Src2),
	}
	switch {
	case u.Class.IsMem():
		r.aux = offset32(u.Mem.Addr, base, "data address")
	case u.Class.IsBranch():
		r.aux = offset32(u.Branch.Target, base, "branch target")
		r.taken = u.Branch.Taken
	}
	return r
}

// unpack decodes r, the record at index seq, into u.
func (r *record) unpack(seq, base uint64, u *isa.Uop) {
	*u = isa.Uop{
		Seq:   seq,
		PC:    base + uint64(r.pc),
		Class: r.class,
		Dest:  isa.Reg(r.dest),
		Src1:  isa.Reg(r.src1),
		Src2:  isa.Reg(r.src2),
	}
	switch {
	case r.class.IsMem():
		u.Mem.Addr = base + uint64(r.aux)
	case r.class.IsBranch():
		u.Branch = isa.BranchInfo{Taken: r.taken, Target: base + uint64(r.aux)}
	}
}

// Chunks appended to tapes, decoded from them by readers, and
// generated privately by readers that left their tape, process wide
// (dwarn_tape_chunks_total).
var tapeGenerated, tapeRead, tapePrivate atomic.Uint64

// TapeChunks returns how many chunks this process has generated onto
// tapes, how many readers have decoded from them, and how many readers
// that left their tape have generated privately.
func TapeChunks() (generated, read, private uint64) {
	return tapeGenerated.Load(), tapeRead.Load(), tapePrivate.Load()
}

// TapeBudget bounds the chunk bytes a set of tapes retains (TapeBytes).
// It is safe for concurrent use.
type TapeBudget struct {
	used  atomic.Int64
	limit int64
}

// NewTapeBudget returns an empty budget of TapeBytes.
func NewTapeBudget() *TapeBudget { return &TapeBudget{limit: TapeBytes} }

// Used returns the chunk bytes the budget's tapes retain.
func (b *TapeBudget) Used() int64 { return b.used.Load() }

// take reserves n bytes, reporting false (and reserving nothing) when
// they would pass the limit.
func (b *TapeBudget) take(n int64) bool {
	if b.used.Add(n) > b.limit {
		b.used.Add(-n)
		return false
	}
	return true
}

// tape is one thread's correct path, generated once and read by any
// number of streams. Chunks are immutable once appended. A reader that
// reaches the tape's end extends it by a chunk when the budget allows
// and another run of the group may read it; otherwise the reader leaves
// the tape and continues on a clone of the tape's generator, which
// stands exactly at that end (a chunk only this run would read is not
// worth keeping). The tape may grow again for a later reader once the
// budget frees. It pins no program text: its generator is unbound
// between fills, and whichever reader fills or forks it lends its own
// core's identical program.
type tape struct {
	id     coreID
	set    *TapeSet
	budget *TapeBudget

	fill     sync.Mutex // held while generating or forking; guards gen and released
	gen      *Generator // at the tape's end; nil before the first chunk
	released bool

	mu     sync.Mutex // guards chunks
	chunks [][]record
}

// next returns chunk k, appending it over c's program when k is the
// tape's length and the tape may grow, or else a private generator over
// c's program positioned at chunk k. Readers ask for chunks in order,
// so k is never past the length.
func (t *tape) next(k int, c *Core) ([]record, *Generator) {
	if ch := t.lookup(k); ch != nil {
		return ch, nil
	}
	t.fill.Lock()
	defer t.fill.Unlock()
	// Another reader may have appended it while this one waited.
	if ch := t.lookup(k); ch != nil {
		return ch, nil
	}
	if t.released || t.set.holders.Load() < 2 || !t.budget.take(chunkBytes) {
		if t.gen == nil {
			return nil, c.Generator()
		}
		g := t.gen.clone()
		g.rebind(c.prog)
		return nil, g
	}
	if t.gen == nil {
		t.gen = c.Generator()
	} else {
		t.gen.rebind(c.prog)
	}
	ch := make([]record, chunkUops)
	for i := range ch {
		u := t.gen.Next()
		ch[i] = pack(&u, t.id.base)
	}
	t.gen.rebind(nil)
	t.mu.Lock()
	if len(t.chunks) != k {
		t.mu.Unlock()
		panic(fmt.Sprintf("workload: tape: chunk %d generated at length %d", k, len(t.chunks)))
	}
	t.chunks = append(t.chunks, ch)
	t.mu.Unlock()
	tapeGenerated.Add(1)
	return ch, nil
}

// lookup returns chunk k, or nil when the tape does not hold it yet.
func (t *tape) lookup(k int) []record {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < len(t.chunks) {
		return t.chunks[k]
	}
	return nil
}

// release stops the tape growing and returns its bytes to the budget.
func (t *tape) release() {
	t.fill.Lock()
	defer t.fill.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.released {
		t.budget.used.Add(-int64(len(t.chunks)) * chunkBytes)
		t.released = true
	}
}

// tapeReader is the Producer of a stream over a tape: it decodes the
// tape's chunks in order and, once it has left the tape, runs its own
// clone of the tape's generator. c is the reading run's core, whose
// program the reader lends the tape's generator.
type tapeReader struct {
	t   *tape
	c   *Core
	k   int        // next chunk
	gen *Generator // private continuation once off the tape
}

// Fill implements Producer. A Stream always fills whole chunks.
func (r *tapeReader) Fill(buf []isa.Uop) {
	if len(buf) != chunkUops {
		panic(fmt.Sprintf("workload: tape: fill of %d uops, want one %d-uop chunk", len(buf), chunkUops))
	}
	if r.gen == nil {
		ch, gen := r.t.next(r.k, r.c)
		if ch != nil {
			seq := uint64(r.k) * chunkUops
			for i := range ch {
				ch[i].unpack(seq+uint64(i), r.t.id.base, &buf[i])
			}
			r.k++
			tapeRead.Add(1)
			return
		}
		r.gen = gen
	}
	r.gen.Fill(buf)
	tapePrivate.Add(1)
}

// TapeSet is one (workload, seed) group's tapes, one per thread, and
// the count of the group's runs in flight that hold it. It is bound to
// the group's cores by the first Streams call that shares it; every
// later call with cores of the same identity reads the same tapes. Safe
// for concurrent use.
type TapeSet struct {
	budget *TapeBudget

	holders atomic.Int32 // written under mu; tapes read it without

	mu       sync.Mutex
	tapes    []*tape
	released bool
}

// NewTapeSet returns an unbound set whose tapes draw on budget.
func NewTapeSet(budget *TapeBudget) *TapeSet { return &TapeSet{budget: budget} }

// Hold counts a run of the group in: one that may read the set, from
// before it is queued until it has finished.
func (s *TapeSet) Hold() {
	s.mu.Lock()
	s.holders.Add(1)
	s.mu.Unlock()
}

// Drop counts a holder out. The last one releases the set: every tape
// stops growing and returns its bytes to the budget, and later Streams
// calls report false. Drop reports whether it released the set.
func (s *TapeSet) Drop() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.holders.Add(-1) > 0 {
		return false
	}
	s.released = true
	for _, t := range s.tapes {
		t.release()
	}
	return true
}

// Streams returns one stream per core, each reading that thread's tape.
// A run shares the set only with company: when another holder is in
// flight or the set is already bound. ok is false, and the caller
// should build private streams, for a lone run, for cores of another
// identity (profile, seed or base) than the bound tapes', and once the
// set is released. A tape stream decodes the tape inline, and reads
// ahead, if asked to, only once it has left the tape (Stream.onTape).
func (s *TapeSet) Streams(cores []*Core) (streams []*Stream, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.released:
		return nil, false
	case s.tapes == nil:
		if s.holders.Load() < 2 {
			return nil, false
		}
		s.tapes = make([]*tape, len(cores))
		for i, c := range cores {
			s.tapes[i] = &tape{id: c.id(), set: s, budget: s.budget}
		}
	case !s.fits(cores):
		return nil, false
	}
	streams = make([]*Stream, len(cores))
	for i, t := range s.tapes {
		c := cores[i]
		streams[i] = NewStream(&tapeReader{t: t, c: c}, c.streamMeta())
	}
	return streams, true
}

// fits reports whether cores have the identity of the bound tapes'.
func (s *TapeSet) fits(cores []*Core) bool {
	return slices.EqualFunc(s.tapes, cores, func(t *tape, c *Core) bool { return t.id == c.id() })
}

// Chunks returns how many chunks the set's tapes hold in total.
func (s *TapeSet) Chunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, t := range s.tapes {
		t.mu.Lock()
		n += len(t.chunks)
		t.mu.Unlock()
	}
	return n
}
