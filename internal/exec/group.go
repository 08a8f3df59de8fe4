package exec

import (
	"dwarn/internal/ckpt"
	"dwarn/internal/workload"
)

// Checkpoint groups. The cells of a sweep that share a checkpoint key
// (workload and seed) calibrate once and read one generated correct
// path. The executor keeps one group record per key in e.groups while
// any of the group's cells is inside lead (in the wait line or running):
// the first such cell creates it and the last one out deletes it, so a
// record lives exactly as long as its group's cells.
//
// The record feeds the wait line's start rule (line.go): a group's cell
// may take a slot while the group's image is published, or while none
// of the group's cells holds one. So the group's first cell to start
// calibrates alone while its siblings keep their place in the line, and
// they start and fork the moment the image is published: by that cell's
// Put, or by a Get hit on a tier that already had it. The publish comes
// right after calibration, so the siblings overlap the first cell's
// whole run. A cell that gives up its slot unpublished (run failed or
// canceled) lets exactly one sibling start in its place, so a failed
// calibration never sets off a herd of cold starts.
//
// A Get miss unpublishes the group, because a bounded tier may have
// evicted the image since it was published: the missing cell calibrates
// while the siblings still in the line wait for its publish. A group
// whose record is gone starts afresh, unpublished: its next cell starts
// alone, and that cell's own store hit releases the rest at once.
type group struct {
	published bool              // the group's image was put or hit, and not missed since
	running   int               // the group's cells holding a slot
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

// leave counts a cell out of its group; the group's last cell deletes
// the record and releases its tapes.
func (e *Executor) leave(key string, g *group) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g.tapes.Drop() {
		delete(e.groups, key)
	}
}

// publish records whether the group under key has its image in the
// store. A publish starts the group's siblings waiting in the line; a
// hit counts as much as a Put, since an image a disk tier kept from an
// earlier process must release the whole group at once, not one cell
// at a time.
func (e *Executor) publish(key string, published bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if g := e.groups[key]; g != nil {
		g.published = published
		if published {
			e.dispatch()
		}
	}
}

// gatedStore is the checkpoint store the executor hands to sim: it
// forwards to the shared tiers and publishes a group on every Put and
// hit, and unpublishes it on every miss.
type gatedStore struct{ e *Executor }

// Get implements ckpt.Store.
func (s gatedStore) Get(key string) (*ckpt.Image, bool) {
	img, ok := s.e.ckpts.Get(key)
	s.e.publish(key, ok)
	return img, ok
}

// Put implements ckpt.Store.
func (s gatedStore) Put(key string, img *ckpt.Image) {
	s.e.ckpts.Put(key, img)
	s.e.publish(key, true)
}
