// Package packed is the compact snapshot form of the simulator's
// set-associative tables: cache lines, DTLB entries and BTB entries.
//
// A packed table is, set by set, a bitmap of the set's valid ways
// (ceil(ways/8) bytes, way w at bit w%8 of byte w/8), then each valid
// way's fields as zigzag varints. Invalid ways carry nothing: no lookup
// or replacement path of those tables reads an invalid way's fields, so
// a restore that zeroes them behaves exactly like the original. Each
// table codes its fields as deltas from earlier entries where that
// keeps them to a byte or two; the package only frames them.
//
// Every Writer and Reader method a table's loop calls is small enough
// to inline, so packing or unpacking a table makes no call per entry.
package packed

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
)

// scratch holds writers' growing buffers between snapshots, so a
// snapshot allocates only its exact-size result.
var scratch = sync.Pool{New: func() any { return new([]byte) }}

// Writer packs a table set by set.
type Writer struct {
	b    []byte
	mask int // offset of the open set's bitmap
}

// NewWriter returns a writer over a pooled scratch buffer; Bytes
// returns the buffer.
func NewWriter() Writer { return Writer{b: (*scratch.Get().(*[]byte))[:0]} }

// Set opens the next set, reserving a cleared bitmap for its ways.
func (w *Writer) Set(ways int) {
	w.mask = len(w.b)
	for i := (ways + 7) / 8; i > 0; i-- {
		w.b = append(w.b, 0)
	}
}

// Valid marks way valid in the open set; its fields follow.
func (w *Writer) Valid(way int) { w.b[w.mask+way>>3] |= 1 << (way & 7) }

// Int appends v as a zigzag varint.
func (w *Writer) Int(v int64) { w.b = binary.AppendVarint(w.b, v) }

// Bytes returns the packed table in a slice of its own exact size, and
// gives the writer's buffer back to the pool.
func (w *Writer) Bytes() []byte {
	out := bytes.Clone(w.b)
	buf := w.b[:0]
	scratch.Put(&buf)
	*w = Writer{}
	return out
}

// A Reader's offset turns negative at its first defect, naming it; from
// then on Set returns no bitmap and Int returns 0.
const (
	cutMask = -1 - iota
	wideMask
	badVarint
)

// Reader unpacks a table in the order it was written.
type Reader struct {
	b   []byte
	off int
}

// NewReader returns a reader over a packed table.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Set opens the next set of ways ways and returns its bitmap, for
// Valid. A bitmap cut short, or one with a bit at or beyond ways, is a
// defect, and the set reads as all invalid.
func (r *Reader) Set(ways int) []byte {
	n := (ways + 7) / 8
	if r.off < 0 || n > len(r.b)-r.off {
		if r.off >= 0 {
			r.off = cutMask
		}
		return nil
	}
	m := r.b[r.off : r.off+n]
	if n > 0 && m[n-1]>>((ways-1)&7+1) != 0 {
		r.off = wideMask
		return nil
	}
	r.off += n
	return m
}

// Valid reports whether way is marked valid in a bitmap Set returned.
func Valid(mask []byte, way int) bool { return mask != nil && mask[way>>3]>>(way&7)&1 != 0 }

// Int reads a zigzag varint. A cut one, or one longer than ten bytes,
// is a defect.
func (r *Reader) Int() int64 {
	var u uint64
	for s := uint(0); uint(r.off) < uint(len(r.b)) && s < 64; s += 7 { // a negative offset is out of range
		x := r.b[r.off]
		r.off++
		u |= uint64(x&0x7f) << s
		if x < 0x80 {
			return int64(u>>1) ^ -int64(u&1)
		}
	}
	if r.off >= 0 {
		r.off = badVarint
	}
	return 0
}

// Close ends the read and returns its first defect, if any; bytes left
// over after the last set are one.
func (r *Reader) Close() error {
	switch {
	case r.off == len(r.b):
		return nil
	case r.off == cutMask:
		return fmt.Errorf("packed: set bitmap truncated")
	case r.off == wideMask:
		return fmt.Errorf("packed: set bitmap marks a way beyond the set")
	case r.off == badVarint:
		return fmt.Errorf("packed: bad varint")
	}
	return fmt.Errorf("packed: %d trailing bytes", len(r.b)-r.off)
}

// Check validates a packed table of sets×ways entries whose valid
// entries carry fields varints each: a geometry the bytes can hold, no
// way bit beyond ways, no cut or overlong varint, no trailing bytes. A
// table with no sets or no ways packs to no bytes. Check reads no more
// than b, whatever the geometry says.
func Check(b []byte, sets, ways, fields int) error {
	switch {
	case sets < 0 || ways < 0 || fields < 0:
		return fmt.Errorf("packed: negative %dx%d table", sets, ways)
	case sets == 0 || ways == 0:
		sets = 0
	case sets > len(b)/((ways+7)/8):
		return fmt.Errorf("packed: %d bytes cannot hold a %dx%d table", len(b), sets, ways)
	}
	r := NewReader(b)
	for s := 0; s < sets && r.off >= 0; s++ {
		mask := r.Set(ways)
		for w := 0; w < ways; w++ {
			if Valid(mask, w) {
				for f := 0; f < fields; f++ {
					r.Int()
				}
			}
		}
	}
	return r.Close()
}
