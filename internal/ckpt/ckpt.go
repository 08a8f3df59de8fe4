// Package ckpt is the checkpoint/fork engine's storage layer: it
// serializes the post-prewarm machine state of a simulation — caches,
// TLBs, branch predictor, core clock scalars, and per-thread workload
// source cursors — into a versioned (DWCKPT02), checksummed binary
// image, content-addressed by the (machine, workload, seed) half of the
// run fingerprint (sim.CheckpointKey). Sweep cells that differ only in
// fetch policy or policy parameters share a checkpoint: the first cell
// of a group builds machine state once and publishes it, and every
// other cell forks from the image instead of re-running generator
// construction and cache prewarming.
//
// The caches, DTLBs and BTB arrive already packed (package packed:
// valid entries only, as varint deltas), so an image is tens of KB. The
// codec stores those bytes verbatim and walks them in full on decode.
//
// Correctness contract: a checkpoint is an optimization, never an
// oracle. Every decode is CRC-verified and its packed tables validated,
// and every image is shape-checked against the live machine on restore;
// any mismatch — corruption, truncation, a format bump, a config drift
// — makes the run fall back to a cold start. A damaged checkpoint can
// cost time; it can never change a result.
package ckpt

import (
	"unsafe"

	"dwarn/internal/bpred"
	"dwarn/internal/mem/cache"
	"dwarn/internal/mem/tlb"
	"dwarn/internal/pipeline"
	"dwarn/internal/workload"
)

// Image is one decoded checkpoint: everything needed to fork a
// simulation from its post-prewarm point. Images are immutable once
// stored — stores may hand the same pointer to every caller, and
// callers must not modify one.
type Image struct {
	// Key is the checkpoint key the image was stored under; decode
	// verifies it so a renamed file cannot impersonate another group.
	Key string
	// Seed is the synthetic-randomness seed the state was built from
	// (diagnostic; the key already covers it).
	Seed uint64
	// Core holds the CPU's scalar state at the quiescent snapshot point.
	Core pipeline.CoreState
	// Memory hierarchy contents.
	L1I, L1D, L2 cache.State
	DTLB         []tlb.State
	// Bpred is the predictor state (untouched by prewarm today, but
	// captured so the image stays a complete machine snapshot if
	// prewarming ever grows a front-end phase).
	Bpred bpred.State
	// Sources holds each thread's workload generator cursor state.
	Sources []workload.SourceState
}

// ApproxBytes is the memory the image holds: its structs plus the
// capacity of every slice it owns. The MemStore's byte bound and the
// dwarn_ckpt_bytes gauge count this, so DefaultMemBytes bounds what the
// memory tier keeps resident.
func (img *Image) ApproxBytes() int {
	n := int(unsafe.Sizeof(*img)) + len(img.Key)
	n += cap(img.L1I.Packed) + cap(img.L1D.Packed) + cap(img.L2.Packed)
	n += cap(img.DTLB) * int(unsafe.Sizeof(tlb.State{}))
	for _, t := range img.DTLB {
		n += cap(t.Packed)
	}
	b := &img.Bpred
	n += cap(b.PHT) + cap(b.BTB) + cap(b.History)*4 + cap(b.RASTop)*int(unsafe.Sizeof(0))
	n += cap(b.RAS) * int(unsafe.Sizeof([]uint64(nil)))
	for _, r := range b.RAS {
		n += cap(r) * 8
	}
	n += cap(img.Sources) * int(unsafe.Sizeof(workload.SourceState{}))
	return n
}
