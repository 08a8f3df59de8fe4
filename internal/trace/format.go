// Package trace records and replays binary uop traces. A trace captures
// one run's correct-path uop streams — one stream per thread, varint and
// delta encoded, gzip framed — together with the per-thread metadata
// (workload.ReplayMeta) a replay stream needs to reconstruct each
// thread's wrong-path synthesis byte-exactly. Replaying a trace therefore
// reproduces a live synthetic run bit for bit, for any fetch policy,
// while skipping CFG walking and operand synthesis entirely.
//
// File layout:
//
//	magic "DWTR" (4 bytes) | version (1 byte) | gzip(payload)
//
// payload:
//
//	workloadName string | seed uvarint | threadCount uvarint
//	per thread:
//	  meta (see appendMeta) | recordByteLen uvarint | records
//
// Each record encodes one correct-path uop:
//
//	head byte: class (low 4 bits) | flagPCSeq | flagTaken
//	[pc delta zigzag]    — omitted when flagPCSeq (PC == prev+4)
//	[registers]          — class-dependent, 1 byte each (0xFF = NoReg)
//	[mem addr zigzag]    — delta from the thread's previous data address
//	[branch target zigzag] — delta from the fall-through PC
//
// Sequence numbers and the WrongPath flag are not stored: correct-path
// sequence numbers are positional, and traces record the correct path
// only (wrong paths are synthesized at replay).
package trace

import (
	"encoding/binary"
	"fmt"
	"math"

	"dwarn/internal/isa"
)

// fileMagic and fileVersion identify the container format.
const (
	fileMagic   = "DWTR"
	fileVersion = 1
)

// Head-byte flags (class occupies the low 4 bits).
const (
	flagPCSeq = 1 << 4 // PC == previous PC + 4; pc delta omitted
	flagTaken = 1 << 5 // branch actual direction
)

// noRegByte encodes isa.NoReg in one byte.
const noRegByte = 0xFF

// Sanity bounds applied when decoding untrusted trace files (the dwarnd
// upload endpoint feeds request bodies straight into the reader).
const (
	maxThreads     = 64
	maxStringLen   = 4096
	maxBlockStarts = 1 << 22
)

// codecState is the per-thread delta-encoding state, symmetric between
// encode and decode.
type codecState struct {
	prevPC  uint64
	prevMem uint64
}

// appendUvarint/appendZigzag are small wrappers over encoding/binary.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendZigzag(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

func appendReg(buf []byte, r isa.Reg) []byte {
	if r == isa.NoReg {
		return append(buf, noRegByte)
	}
	return append(buf, byte(r))
}

// appendUop delta-encodes one correct-path uop.
func appendUop(buf []byte, u *isa.Uop, st *codecState) []byte {
	head := byte(u.Class) & 0x0F
	pcSeq := u.PC == st.prevPC+4
	if pcSeq {
		head |= flagPCSeq
	}
	if u.Class.IsBranch() && u.Branch.Taken {
		head |= flagTaken
	}
	buf = append(buf, head)
	if !pcSeq {
		buf = appendZigzag(buf, int64(u.PC-st.prevPC))
	}
	st.prevPC = u.PC

	switch u.Class {
	case isa.IntALU, isa.IntMul, isa.FPALU, isa.FPMul:
		buf = appendReg(buf, u.Src1)
		buf = appendReg(buf, u.Src2)
		buf = appendReg(buf, u.Dest)
	case isa.Load:
		buf = appendReg(buf, u.Src1)
		buf = appendReg(buf, u.Dest)
	case isa.Store:
		buf = appendReg(buf, u.Src1)
		buf = appendReg(buf, u.Src2)
	case isa.CondBranch:
		buf = appendReg(buf, u.Src1)
	}

	if u.Class.IsMem() {
		buf = appendZigzag(buf, int64(u.Mem.Addr-st.prevMem))
		st.prevMem = u.Mem.Addr
	}
	if u.Class.IsBranch() {
		buf = appendZigzag(buf, int64(u.Branch.Target-(u.PC+4)))
	}
	return buf
}

// decodeUop decodes one record from data, returning the bytes consumed.
// It is the exact inverse of appendUop.
func decodeUop(data []byte, st *codecState, u *isa.Uop) (int, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("trace: truncated record")
	}
	head := data[0]
	pos := 1
	class := isa.Class(head & 0x0F)
	if int(class) >= isa.NumClasses {
		return 0, fmt.Errorf("trace: invalid class %d", class)
	}
	*u = isa.Uop{Class: class, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}

	if head&flagPCSeq != 0 {
		u.PC = st.prevPC + 4
	} else {
		d, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: bad pc delta")
		}
		pos += n
		u.PC = st.prevPC + uint64(d)
	}
	st.prevPC = u.PC

	readReg := func(r *isa.Reg) error {
		if pos >= len(data) {
			return fmt.Errorf("trace: truncated register")
		}
		b := data[pos]
		pos++
		if b == noRegByte {
			*r = isa.NoReg
		} else if b >= isa.NumIntRegs {
			return fmt.Errorf("trace: invalid register %d", b)
		} else {
			*r = isa.Reg(b)
		}
		return nil
	}
	var err error
	switch class {
	case isa.IntALU, isa.IntMul, isa.FPALU, isa.FPMul:
		if err = readReg(&u.Src1); err == nil {
			if err = readReg(&u.Src2); err == nil {
				err = readReg(&u.Dest)
			}
		}
	case isa.Load:
		if err = readReg(&u.Src1); err == nil {
			err = readReg(&u.Dest)
		}
	case isa.Store:
		if err = readReg(&u.Src1); err == nil {
			err = readReg(&u.Src2)
		}
	case isa.CondBranch:
		err = readReg(&u.Src1)
	}
	if err != nil {
		return 0, err
	}

	if class.IsMem() {
		d, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: bad mem delta")
		}
		pos += n
		u.Mem.Addr = st.prevMem + uint64(d)
		st.prevMem = u.Mem.Addr
	}
	if class.IsBranch() {
		d, n := binary.Varint(data[pos:])
		if n <= 0 {
			return 0, fmt.Errorf("trace: bad branch target")
		}
		pos += n
		u.Branch.Target = u.PC + 4 + uint64(d)
		u.Branch.Taken = head&flagTaken != 0
	}
	return pos, nil
}
