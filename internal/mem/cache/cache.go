// Package cache implements the set-associative caches used for the L1
// instruction, L1 data, and unified L2 levels.
//
// Timing model: the simulator uses insert-at-request with per-line
// ReadyAt timestamps. A miss allocates the line immediately but stamps
// it with the cycle its data will arrive; a subsequent access to the
// same line before that cycle is a "delayed hit" that completes when the
// fill does. This gives MSHR-style merging of secondary misses without
// an event queue, which is the standard trace-simulator simplification
// (SMTSIM does the same).
package cache

import (
	"fmt"
	"math/bits"

	"dwarn/internal/config"
)

// Outcome classifies a cache access.
type Outcome uint8

const (
	// Hit means the line was present and ready.
	Hit Outcome = iota
	// DelayedHit means the line was already being filled by an earlier
	// miss; the access completes when that fill arrives.
	DelayedHit
	// Miss means the line was absent and a fill was allocated.
	Miss
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case DelayedHit:
		return "delayed-hit"
	case Miss:
		return "miss"
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// Stats counts accesses by outcome.
type Stats struct {
	Hits        uint64
	DelayedHits uint64
	Misses      uint64
}

// Accesses returns the total access count.
func (s *Stats) Accesses() uint64 { return s.Hits + s.DelayedHits + s.Misses }

// MissRate returns misses / accesses (delayed hits are not misses: the
// line was already in flight). Returns 0 for no accesses.
func (s *Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

type line struct {
	tag   uint64
	valid bool
	// readyAt is the first cycle the line's data is usable.
	readyAt int64
	// lastUse drives LRU replacement.
	lastUse int64
}

// Cache is a single set-associative cache level. It is not safe for
// concurrent use; each simulated core owns its caches.
type Cache struct {
	cfg        config.CacheConfig
	sets       [][]line
	offsetBits uint
	indexBits  uint
	indexMask  uint64
	useClock   int64

	// Stats is exported state the owner may read or reset at will.
	Stats Stats
}

// New builds a cache from cfg. cfg must validate.
func New(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate("cache"); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	backing := make([]line, nsets*cfg.Ways)
	sets := make([][]line, nsets)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:        cfg,
		sets:       sets,
		offsetBits: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		indexBits:  uint(bits.TrailingZeros(uint(nsets))),
		indexMask:  uint64(nsets - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() config.CacheConfig { return c.cfg }

// LineAddr returns the line-aligned address for addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr >> c.offsetBits << c.offsetBits
}

func (c *Cache) split(addr uint64) (idx int, tag uint64) {
	a := addr >> c.offsetBits
	return int(a & c.indexMask), a >> c.indexBits
}

// Access looks up addr at cycle now. On a miss it allocates the line
// (evicting LRU) with data arriving at fillAt. It returns the outcome
// and the cycle the data is ready (now for a Hit, the pending fill time
// for a DelayedHit, fillAt for a Miss).
func (c *Cache) Access(addr uint64, now, fillAt int64) (Outcome, int64) {
	idx, tag := c.split(addr)
	set := c.sets[idx]
	c.useClock++
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.lastUse = c.useClock
			if ln.readyAt > now {
				c.Stats.DelayedHits++
				return DelayedHit, ln.readyAt
			}
			c.Stats.Hits++
			return Hit, now
		}
	}
	c.Stats.Misses++
	victim := c.victim(set, now)
	set[victim] = line{tag: tag, valid: true, readyAt: fillAt, lastUse: c.useClock}
	return Miss, fillAt
}

// Probe reports whether addr is present (ready or in flight) without
// modifying any state. It exists for tests and for policies that need a
// non-destructive lookup.
func (c *Cache) Probe(addr uint64) (present bool, readyAt int64) {
	idx, tag := c.split(addr)
	for i := range c.sets[idx] {
		ln := &c.sets[idx][i]
		if ln.valid && ln.tag == tag {
			return true, ln.readyAt
		}
	}
	return false, 0
}

// Touch inserts addr as present-and-ready without counting an access.
// Warmup and tests use it to preload state.
func (c *Cache) Touch(addr uint64) {
	idx, tag := c.split(addr)
	set := c.sets[idx]
	c.useClock++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = c.useClock
			set[i].readyAt = 0
			return
		}
	}
	victim := c.victim(set, 1<<62)
	set[victim] = line{tag: tag, valid: true, lastUse: c.useClock}
}

// Invalidate drops addr's line if present, returning whether it was.
func (c *Cache) Invalidate(addr uint64) bool {
	idx, tag := c.split(addr)
	for i := range c.sets[idx] {
		ln := &c.sets[idx][i]
		if ln.valid && ln.tag == tag {
			ln.valid = false
			return true
		}
	}
	return false
}

// Reset clears all lines and statistics.
func (c *Cache) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = line{}
		}
	}
	c.useClock = 0
	c.Stats = Stats{}
}

// victim picks the replacement way in set: an invalid way if one exists,
// otherwise the least-recently-used way whose fill has arrived. Lines
// still in flight are only evicted when the whole set is in flight —
// the MSHR-holds-the-line protection real caches have; without it,
// set-colliding concurrent misses evict each other's pending fills and
// can livelock the fetch engine.
func (c *Cache) victim(set []line, now int64) int {
	victim := -1
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].readyAt > now {
			continue // in flight: protected
		}
		if victim < 0 || set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if victim >= 0 {
		return victim
	}
	// Whole set is in flight: fall back to overall LRU.
	victim = 0
	for i := 1; i < len(set); i++ {
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	return victim
}
