package ckpt

import (
	"fmt"

	"dwarn/internal/store"
)

// Store is the checkpoint store, keyed by sim.CheckpointKey (the
// workload and seed of a run).
type Store = store.Store[*Image]

// Chain layers checkpoint stores fastest-first: mem over dir, plus the
// coordinator's remote tier on a fabric worker.
type Chain = store.Chain[*Image]

// DefaultMemBytes bounds the default in-memory tier: a materialized
// core holds 143–566 KB on the built-in profiles (339 KB on average), so
// this keeps about 32–36 cores resident — 4 to 18 groups of the paper's
// 8- to 2-thread workloads — without letting a wide sweep grow the heap
// unboundedly.
const DefaultMemBytes = 12 << 20

// NewMemStore returns the in-memory checkpoint tier (the whole store
// without -ckpt-dir/-store): an LRU bounded to maxBytes of images as
// Image.ApproxBytes counts them (0 = DefaultMemBytes); an oversized
// newest image stays.
func NewMemStore(maxBytes int) *store.Mem[*Image] {
	if maxBytes <= 0 {
		maxBytes = DefaultMemBytes
	}
	return store.NewMem(0, int64(maxBytes), func(img *Image) int64 { return int64(img.ApproxBytes()) })
}

// DirStore is the durable tier (smtsim -ckpt-dir, dwarnd -store): one
// file per key, DIR/<key>.ckpt. A damaged or renamed file is a miss:
// the cell re-warms and overwrites it.
type DirStore = store.Dir[*Image]

// NewDirStore creates the directory if needed and opens a store on it.
func NewDirStore(dir string) (*DirStore, error) { return store.NewDir(dir, Codec) }

// Codec is an image's bytes under a key, on disk and on the fabric
// wire: Encode's form, with Decode additionally requiring the image's
// own key to match, so a renamed file or a misrouted transfer cannot
// impersonate another group.
var Codec = store.Codec[*Image]{
	Kind: "ckpt",
	Ext:  ".ckpt",
	Encode: func(key string, img *Image) ([]byte, error) {
		if img.Key != key {
			return nil, fmt.Errorf("ckpt: image for %q stored under %q", img.Key, key)
		}
		return Encode(img), nil
	},
	Decode: func(key string, raw []byte) (*Image, error) {
		img, err := Decode(raw)
		if err == nil && img.Key != key {
			err = fmt.Errorf("ckpt: image for %q read under %q", img.Key, key)
		}
		return img, err
	},
}
