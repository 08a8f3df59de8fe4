// Package ckpt is the checkpoint/fork engine's storage layer. An image
// holds one (workload, seed) group's calibrated program cores
// (workload.Core), content-addressed by sim.CheckpointKey. Sweep cells
// that differ only in machine, fetch policy, policy parameters or run
// lengths share an image: the group's first cell calibrates the cores
// and publishes them, and every cell, the first included, builds fresh
// generators over them, a fresh machine, and prewarms it. A fork skips
// program synthesis and the two calibration dry runs per thread, the
// costly part of starting a run; it does not skip generator or machine
// construction, which are cheap.
//
// The memory tier holds images materialized, hundreds of KB per core.
// The durable tiers (DirStore, the fabric's checkpoint route) hold the
// compact versioned (DWCKPT03), checksummed form: per thread the
// benchmark, thread seed and address base, a digest of the program
// text, the home region of every load and store slot (two bits each)
// and the load and store region adjustments, a few KB per image. Decode
// regenerates each program from its registered profile and seed, checks
// the digest and applies the calibration, so a disk hit runs no dry
// run.
//
// Correctness contract: a checkpoint is an optimization, never an
// oracle. Every decode is CRC-verified and every regenerated program
// digest-checked; an image whose cores do not fit the run's workload is
// abandoned for a cold calibration. A damaged checkpoint can cost time;
// it can never change a result.
package ckpt

import (
	"unsafe"

	"dwarn/internal/workload"
)

// Image is one checkpoint: a (workload, seed) group's calibrated
// program cores, one per thread in workload order. Images are
// immutable once stored — stores may hand the same pointer to every
// caller, and callers must not modify one.
type Image struct {
	// Key is the checkpoint key the image was stored under; decode
	// verifies it so a renamed file cannot impersonate another group.
	Key   string
	Cores []*workload.Core
}

// ApproxBytes is the memory the image holds: its struct, its key and
// every core's materialized program slices. The MemStore's byte bound
// and the dwarn_ckpt_bytes gauge count this, so DefaultMemBytes bounds
// what the memory tier keeps resident.
func (img *Image) ApproxBytes() int {
	n := int(unsafe.Sizeof(*img)) + len(img.Key) + cap(img.Cores)*int(unsafe.Sizeof((*workload.Core)(nil)))
	for _, c := range img.Cores {
		n += c.ApproxBytes()
	}
	return n
}
