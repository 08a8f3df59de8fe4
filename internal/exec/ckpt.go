package exec

import (
	"context"
	"sync"

	"dwarn/internal/ckpt"
)

// warmGate serializes the cold calibration of each checkpoint group:
// the first cell of a (workload, seed) group becomes the warm leader
// while its siblings wait, then fork from the published checkpoint.
// Unlike the fingerprint single-flight, the gate releases the moment
// the checkpoint is *published* — right after calibration, before the
// leader builds its machine — so siblings overlap with the leader's
// whole run rather than wait for its completion. A leader that exits
// without publishing (run errored, canceled) promotes exactly one
// waiter to warm leader, so a failed calibration never triggers a
// thundering herd of redundant cold starts.
type warmGate struct {
	mu        sync.Mutex
	warming   map[string]chan struct{}
	published map[string]bool // at most maxPublished keys
}

// maxPublished bounds the gate's published set, so a long-lived
// executor does not keep one entry per group it has ever seen. Dropping
// a key whose image is still stored costs little: the group's next
// cell passes the gate as its leader, and that cell's store hit
// releases the siblings at once.
const maxPublished = 4096

func newWarmGate() *warmGate {
	return &warmGate{
		warming:   make(map[string]chan struct{}),
		published: make(map[string]bool),
	}
}

// enter blocks until the key's checkpoint is available or the caller
// becomes the group's warm leader. It returns the function to call
// when the caller's run finishes (a no-op for non-leaders): it
// promotes the next waiter if the leader never published.
func (g *warmGate) enter(ctx context.Context, key string) (leave func(), err error) {
	nop := func() {}
	for {
		g.mu.Lock()
		if g.published[key] {
			g.mu.Unlock()
			return nop, nil
		}
		ch, ok := g.warming[key]
		if !ok {
			ch = make(chan struct{})
			g.warming[key] = ch
			g.mu.Unlock()
			return func() { g.exit(key, ch) }, nil
		}
		g.mu.Unlock()
		select {
		case <-ch:
			// Re-check: published → fork; leader died → maybe lead.
		case <-ctx.Done():
			return nop, ctx.Err()
		}
	}
}

// release marks the key's checkpoint available and unblocks every
// waiter. Called by the gated store on both publish and first hit (a
// hit on a disk tier warmed by an earlier process must flood the gate
// just like a fresh publish — otherwise waiters would fork one at a
// time).
func (g *warmGate) release(key string) {
	g.mu.Lock()
	if !g.published[key] && len(g.published) >= maxPublished {
		for k := range g.published {
			delete(g.published, k)
			break
		}
	}
	g.published[key] = true
	if ch, ok := g.warming[key]; ok {
		delete(g.warming, key)
		close(ch)
	}
	g.mu.Unlock()
}

// forget unpublishes a key whose image the store no longer holds (a
// bounded tier evicted it), so the group's next cell leads a new
// warmup instead of skipping the gate.
func (g *warmGate) forget(key string) {
	g.mu.Lock()
	delete(g.published, key)
	g.mu.Unlock()
}

// exit retires a leader that finished without publishing; the closed
// channel wakes all waiters, and enter's re-check elects one of them
// the next leader.
func (g *warmGate) exit(key string, ch chan struct{}) {
	g.mu.Lock()
	if cur, ok := g.warming[key]; ok && cur == ch {
		delete(g.warming, key)
		close(ch)
	}
	g.mu.Unlock()
}

// gatedCkptStore is the checkpoint store the executor hands to sim:
// it forwards to the shared tiers and tells the warm gate the moment a
// key becomes available, from either direction, and when a lookup
// finds a key gone (a bounded tier evicted it).
type gatedCkptStore struct {
	inner ckpt.Store
	gate  *warmGate
}

func (s gatedCkptStore) Get(key string) (*ckpt.Image, bool) {
	img, ok := s.inner.Get(key)
	if ok {
		s.gate.release(key)
	} else {
		s.gate.forget(key)
	}
	return img, ok
}

func (s gatedCkptStore) Put(key string, img *ckpt.Image) {
	s.inner.Put(key, img)
	s.gate.release(key)
}
