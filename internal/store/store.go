// Package store is the one content-addressed store under results,
// checkpoints and uploaded traces: values by lowercase-hex key in a
// bounded in-memory LRU (Mem), a one-file-per-key directory (Dir) read
// and written through a typed Codec, and fastest-first tiers (Chain).
//
// Every tier is safe for concurrent use, Put is best-effort (a tier
// that cannot persist drops the entry), and anything that cannot be
// read back intact — an invalid key, a torn, corrupted or renamed file
// — is a miss, which only costs a recomputation: "slower, never
// wrong". Values are immutable once stored; callers must not modify
// what Get returns.
package store

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"

	"dwarn/internal/chaos"
)

// Store is the contract every tier and composition implements.
type Store[V any] interface {
	// Get returns the value stored under key, if present and intact.
	Get(key string) (V, bool)
	// Put stores v under key, best-effort.
	Put(key string, v V)
}

// ValidKey is the one gate on keys: 1 to 128 lowercase hex characters.
// Keys become file names in a directory other processes may share, so
// anything else — path separators, dots, upper case, "" — is refused.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Mem is an in-memory LRU bounded by entry count, by total size as
// measured by a size func, by both, or by neither. It always keeps the
// newest entry, so one value over the byte budget is still served.
type Mem[V any] struct {
	maxEntries int
	maxBytes   int64
	size       func(V) int64

	mu           sync.Mutex
	ll           *list.List // front = most recently used
	m            map[string]*list.Element
	bytes        int64
	hits, misses uint64
}

type memEntry[V any] struct {
	key  string
	v    V
	size int64
}

// NewMem returns an empty LRU holding at most maxEntries values and
// maxBytes of size(v); a bound ≤ 0 (or a nil size) is no bound.
func NewMem[V any](maxEntries int, maxBytes int64, size func(V) int64) *Mem[V] {
	return &Mem[V]{maxEntries: maxEntries, maxBytes: maxBytes, size: size,
		ll: list.New(), m: make(map[string]*list.Element)}
}

// Get implements Store, refreshing the entry and counting a hit or miss.
func (m *Mem[V]) Get(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.m[key]; ok {
		m.ll.MoveToFront(el)
		m.hits++
		return el.Value.(*memEntry[V]).v, true
	}
	m.misses++
	var zero V
	return zero, false
}

// Put implements Store, evicting the coldest entries while over a bound.
func (m *Mem[V]) Put(key string, v V) {
	if !ValidKey(key) {
		return
	}
	var size int64
	if m.size != nil {
		size = m.size(v)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.m[key]; ok {
		e := el.Value.(*memEntry[V])
		m.bytes += size - e.size
		e.v, e.size = v, size
		m.ll.MoveToFront(el)
	} else {
		m.m[key] = m.ll.PushFront(&memEntry[V]{key: key, v: v, size: size})
		m.bytes += size
	}
	for m.ll.Len() > 1 && (m.maxEntries > 0 && m.ll.Len() > m.maxEntries ||
		m.maxBytes > 0 && m.bytes > m.maxBytes) {
		e := m.ll.Remove(m.ll.Back()).(*memEntry[V])
		delete(m.m, e.key)
		m.bytes -= e.size
	}
}

// Len returns the number of stored values.
func (m *Mem[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Stats is a point-in-time snapshot of a Mem.
type Stats struct {
	Entries      int
	Hits, Misses uint64
}

// Stats snapshots the counters.
func (m *Mem[V]) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{Entries: m.ll.Len(), Hits: m.hits, Misses: m.misses}
}

// Range calls fn on each entry of a snapshot, least recently used
// first. It neither refreshes nor counts.
func (m *Mem[V]) Range(fn func(key string, v V)) {
	m.mu.Lock()
	snap := make([]memEntry[V], 0, m.ll.Len())
	for el := m.ll.Back(); el != nil; el = el.Prev() {
		snap = append(snap, *el.Value.(*memEntry[V]))
	}
	m.mu.Unlock()
	for _, e := range snap {
		fn(e.key, e.v)
	}
}

// Codec maps a Dir's values to and from file bytes. Decode must fail
// for bytes damaged in any way or written under another key (a renamed
// file); a failed Decode reads as a miss.
type Codec[V any] struct {
	Kind   string // the value kind in the store.put chaos detail: "result", "ckpt"
	Ext    string // file name suffix: ".json", ".ckpt"
	Encode func(key string, v V) ([]byte, error)
	Decode func(key string, raw []byte) (V, error)
}

// Dir persists one file per key, DIR/<key><Ext>, through a Codec. Puts
// go through WriteFile, so readers in any process sharing the directory
// see no entry or a complete one.
type Dir[V any] struct {
	dir   string
	codec Codec[V]
}

// NewDir creates the directory (if needed) and returns a store over it.
func NewDir[V any](dir string, codec Codec[V]) (*Dir[V], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Dir[V]{dir: dir, codec: codec}, nil
}

func (d *Dir[V]) path(key string) string { return filepath.Join(d.dir, key+d.codec.Ext) }

// Get implements Store; an unreadable or undecodable file is a miss.
func (d *Dir[V]) Get(key string) (V, bool) {
	var zero V
	if !ValidKey(key) {
		return zero, false
	}
	if raw, err := os.ReadFile(d.path(key)); err == nil {
		if v, err := d.codec.Decode(key, raw); err == nil {
			return v, true
		}
	}
	return zero, false
}

// Put implements Store; a failed write is dropped.
func (d *Dir[V]) Put(key string, v V) {
	if !ValidKey(key) {
		return
	}
	// Chaos seam: a drill simulating a failing disk drops the write here.
	if chaos.Fire("store.put", d.codec.Kind+":"+key) != nil {
		return
	}
	if raw, err := d.codec.Encode(key, v); err == nil {
		_ = WriteFile(d.path(key), raw) // best-effort: a lost write is a later miss
	}
}

// WriteFile atomically replaces path with data through a temp file in
// the same directory, fsync, and rename: a reader sees the old content
// or the new, and a crash leaves at most a stray "."+base+".tmp*" file.
// It is the one writer behind Dir and the journal's compaction.
func WriteFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if serr := tmp.Sync(); err == nil {
		err = serr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Chain layers stores fastest-first: Get tries each tier in order and
// refills the earlier tiers on a hit; Put writes through to every tier.
type Chain[V any] []Store[V]

// Get implements Store.
func (c Chain[V]) Get(key string) (V, bool) {
	for i, s := range c {
		if v, ok := s.Get(key); ok {
			for _, fast := range c[:i] {
				fast.Put(key, v)
			}
			return v, true
		}
	}
	var zero V
	return zero, false
}

// Put implements Store.
func (c Chain[V]) Put(key string, v V) {
	for _, s := range c {
		s.Put(key, v)
	}
}
