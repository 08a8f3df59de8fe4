package service

import (
	"container/list"
	"sync"

	"dwarn/internal/sim"
)

// Cache is the service's in-memory result tier: a count-bounded LRU of
// finished results keyed by spec fingerprint. It implements exec.Store
// directly, so it is the executor's store (or, with Options.Store, the
// fast tier of tieredStore over the durable one). Results are immutable
// once stored and every caller gets the same pointer; run payloads are
// marshaled from them on demand, and json.Marshal of one *sim.Result is
// deterministic, so a repeat request is served byte-for-byte identical
// to the first.
type Cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses uint64
}

type centry struct {
	fp  string
	res *sim.Result
}

// CacheStats is a point-in-time snapshot for /healthz and /metrics.
type CacheStats struct {
	Entries int    `json:"entries"`
	Max     int    `json:"max"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

// NewCache builds a cache bounded to max entries (min 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get implements exec.Store, recording a hit or miss.
func (c *Cache) Get(fp string) (*sim.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*centry).res, true
	}
	c.misses++
	return nil, false
}

// Put implements exec.Store, evicting the least recently used entry
// when the cache is full.
func (c *Cache) Put(fp string, res *sim.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[fp]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*centry).res = res
		return
	}
	c.items[fp] = c.ll.PushFront(&centry{fp: fp, res: res})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*centry).fp)
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: c.ll.Len(), Max: c.max, Hits: c.hits, Misses: c.misses}
}
