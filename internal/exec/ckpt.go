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
//
// The gate is also the checkpoint store the executor hands to sim: it
// forwards to the shared tiers and learns the moment a key becomes
// available, from either direction.
type warmGate struct {
	inner ckpt.Store

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

func newWarmGate(inner ckpt.Store) *warmGate {
	return &warmGate{
		inner:     inner,
		warming:   make(map[string]chan struct{}),
		published: make(map[string]bool),
	}
}

// enter blocks until the key's checkpoint is available or the caller
// becomes the group's warm leader. It returns the function to call
// when the caller's run finishes (a no-op for non-leaders): it
// promotes the next waiter if the leader never published.
//
// A cell that finds its key published checks the store first, because
// a bounded tier may have evicted the image since; the group's other
// arrivals wait for that one check, as for a warmup. A hit releases
// them all. A miss forgets the key and makes the checking cell the warm
// leader, so after an eviction the group's next cells fork from one
// new warmup instead of each missing the store and warming cold at
// once.
func (g *warmGate) enter(ctx context.Context, key string) (leave func(), err error) {
	nop := func() {}
	woken := false
	for {
		g.mu.Lock()
		if woken && g.published[key] {
			// Released by the publish or the check this cell waited
			// for: the image was just in the store.
			g.mu.Unlock()
			return nop, nil
		}
		ch, ok := g.warming[key]
		if !ok {
			ch = make(chan struct{})
			g.warming[key] = ch
			check := g.published[key]
			g.mu.Unlock()
			if check {
				if _, hit := g.inner.Get(key); hit {
					g.release(key)
					return nop, nil
				}
				g.mu.Lock()
				delete(g.published, key)
				g.mu.Unlock()
			}
			return func() { g.exit(key, ch) }, nil
		}
		g.mu.Unlock()
		select {
		case <-ch:
			// Re-check: published → fork; leader died → maybe lead.
			woken = true
		case <-ctx.Done():
			return nop, ctx.Err()
		}
	}
}

// release marks the key's checkpoint available and unblocks every
// waiter. Called on both publish and hit (a hit on a disk tier warmed
// by an earlier process must flood the gate just like a fresh publish
// — otherwise waiters would fork one at a time).
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

// Get implements ckpt.Store; a hit releases the key's waiters.
func (g *warmGate) Get(key string) (*ckpt.Image, bool) {
	img, ok := g.inner.Get(key)
	if ok {
		g.release(key)
	}
	return img, ok
}

// Put implements ckpt.Store; a publish releases the key's waiters.
func (g *warmGate) Put(key string, img *ckpt.Image) {
	g.inner.Put(key, img)
	g.release(key)
}
