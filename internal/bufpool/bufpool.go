// Package bufpool recycles a simulation's large buffers across runs.
// Every run builds a whole machine (cache line arrays, the event ring,
// the instruction arena) and reads its uop streams through chunk
// buffers; allocating those afresh per run and collecting them after
// costs more than clearing a released set. Each owning package keeps a
// Slices pool, gets its buffers from it in its constructor, and puts
// them back from its release method.
package bufpool

import "sync"

// Slices pools []T buffers keyed by length, so machines of different
// geometries (baseline and deep caches, 1 to 8 threads) recycle
// through one pool without handing a buffer to the wrong shape. It is
// GC-aware: the pool behind each length is a sync.Pool, whose idle
// buffers the collector frees. The zero value is ready to use.
type Slices[T any] struct {
	pools sync.Map // length → *sync.Pool of *[]T
}

// Get returns a slice of length n: one an earlier Put released, with
// its old contents, or a new zeroed one. The caller clears what it
// needs cleared, so fresh and reused buffers take the same path.
func (p *Slices[T]) Get(n int) []T {
	if v := p.pool(n).Get(); v != nil {
		return *v.(*[]T)
	}
	return make([]T, n)
}

// Put releases s for a later Get of the same length. The caller must
// hold no reference into s afterwards.
func (p *Slices[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	p.pool(len(s)).Put(&s)
}

func (p *Slices[T]) pool(n int) *sync.Pool {
	if v, ok := p.pools.Load(n); ok {
		return v.(*sync.Pool)
	}
	v, _ := p.pools.LoadOrStore(n, new(sync.Pool))
	return v.(*sync.Pool)
}
