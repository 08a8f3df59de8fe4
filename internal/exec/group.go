package exec

import (
	"context"

	"dwarn/internal/ckpt"
	"dwarn/internal/workload"
)

// Checkpoint groups. The cells of a sweep that share a checkpoint key
// (workload and seed) calibrate once and read one generated correct
// path. The executor keeps one group record per key in e.groups while
// any of the group's cells is inside lead (at the gate, in the wait line
// or running): the first such cell creates it and the last one out
// deletes it, so a record lives exactly as long as its group's cells.
//
// The record gates cold calibration. The group's first cell becomes the
// warm leader while its siblings wait outside the wait line, holding no
// slot, and they fork the moment the group's image is published: by the
// leader's Put, or by a Get hit on a tier that already had it. The gate
// opens on the publish, right after calibration, so the siblings
// overlap the leader's whole run. A leader that leaves unpublished (run
// failed or canceled) promotes exactly one waiter, so a failed
// calibration never sets off a herd of cold starts.
//
// A cell that arrives at a published record checks the store first,
// because a bounded tier may have evicted the image since; the group's
// other arrivals wait for that one check as for a warmup. A hit
// releases them all. A miss clears the flag and makes the checking cell
// the warm leader, so after an eviction the group forks from one new
// warmup. A group whose record is gone starts afresh: its next cell
// leads, and that cell's own store hit releases the rest at once.
type group struct {
	warming   chan struct{}     // the leader's; closed when it publishes or leaves, nil with no leader
	published bool              // the group's image was put or hit since the record was made
	tapes     *workload.TapeSet // the group's correct path; its holders are the group's cells
}

// join counts a cell of the group under key in, creating the record.
func (e *Executor) join(key string) *group {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.groups[key]
	if g == nil {
		g = &group{tapes: workload.NewTapeSet(e.tapeBudget)}
		e.groups[key] = g
	}
	g.tapes.Hold()
	return g
}

// gate blocks until the group's image is available or the caller
// becomes its warm leader, and returns the leader's channel (nil for a
// cell that forks) for leave.
func (e *Executor) gate(ctx context.Context, key string, g *group) (lead chan struct{}, err error) {
	woken := false
	for {
		e.mu.Lock()
		if woken && g.published {
			// Released by the publish or the check this cell waited
			// for: the image was just in the store.
			e.mu.Unlock()
			return nil, nil
		}
		ch := g.warming
		if ch == nil {
			ch = make(chan struct{})
			g.warming = ch
			check := g.published
			e.mu.Unlock()
			if check {
				if _, hit := e.ckpts.Get(key); hit {
					e.publish(key)
					return nil, nil
				}
				e.mu.Lock()
				g.published = false
				e.mu.Unlock()
			}
			return ch, nil
		}
		e.mu.Unlock()
		select {
		case <-ch:
			// Re-check: published → fork; leader left → maybe lead.
			woken = true
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// leave counts a cell out of its group. A leader that never published
// wakes the waiters, and gate's re-check elects one of them; the
// group's last cell deletes the record and releases its tapes.
func (e *Executor) leave(key string, g *group, lead chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if lead != nil && g.warming == lead {
		g.warming = nil
		close(lead)
	}
	if g.tapes.Drop() {
		delete(e.groups, key)
	}
}

// publish marks the group under key published and releases its
// waiters. A hit counts as much as a Put: an image a disk tier kept
// from an earlier process must release the whole group at once, not
// one cell at a time.
func (e *Executor) publish(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g := e.groups[key]
	if g == nil {
		return
	}
	g.published = true
	if g.warming != nil {
		close(g.warming)
		g.warming = nil
	}
}

// gatedStore is the checkpoint store the executor hands to sim: it
// forwards to the shared tiers and publishes a group on every Put and
// hit.
type gatedStore struct{ e *Executor }

// Get implements ckpt.Store.
func (s gatedStore) Get(key string) (*ckpt.Image, bool) {
	img, ok := s.e.ckpts.Get(key)
	if ok {
		s.e.publish(key)
	}
	return img, ok
}

// Put implements ckpt.Store.
func (s gatedStore) Put(key string, img *ckpt.Image) {
	s.e.ckpts.Put(key, img)
	s.e.publish(key)
}
