// Package tlb implements the per-thread data TLB. The paper charges a
// 160-cycle penalty on a DTLB miss, and a DTLB miss is one of the
// triggers for the STALL and FLUSH policies.
package tlb

import "math/bits"

// Stats counts TLB accesses.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// MissRate returns misses / accesses, or 0 with no accesses.
func (s *Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

type entry struct {
	page    uint64
	lastUse int64
}

// TLB is a fully associative translation buffer with LRU replacement.
// Fully associative is the common choice for small DTLBs (the 21264's
// DTLB was fully associative) and sidesteps set-conflict artifacts in
// the synthetic address streams.
//
// A lookup does not scan the entries: index maps each resident page to
// its entry through open addressing (linear probing), so a hit costs
// one hash and a short probe. Only a miss scans, for the LRU victim.
// Entries fill in order and only Reset empties them, so the
// valid entries are always entries[:used].
type TLB struct {
	entries  []entry
	used     int
	index    []slot
	shift    uint // 64 - log2(len(index))
	pageBits uint
	clock    int64

	// Stats is exported state the owner may read or reset.
	Stats Stats
}

// slot is one index cell: the page and its entry number plus one, so
// the zero cell is empty.
type slot struct {
	page  uint64
	entry int32
}

// New builds a TLB with nEntries entries over pageBytes-sized pages.
func New(nEntries, pageBytes int) *TLB {
	if nEntries <= 0 {
		panic("tlb: need at least one entry")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("tlb: page size must be a positive power of two")
	}
	// At least twice as many cells as entries keeps the table at most
	// half full, so probes stay short.
	logCells := bits.Len(uint(2*nEntries - 1))
	return &TLB{
		entries:  make([]entry, nEntries),
		index:    make([]slot, 1<<logCells),
		shift:    uint(64 - logCells),
		pageBits: uint(bits.TrailingZeros(uint(pageBytes))),
	}
}

// Page returns the page number of addr.
func (t *TLB) Page(addr uint64) uint64 { return addr >> t.pageBits }

// home is page's first index cell (Fibonacci hashing).
func (t *TLB) home(page uint64) int {
	return int((page * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns page's index cell, or the empty cell ending its probe
// sequence.
func (t *TLB) find(page uint64) int {
	mask := len(t.index) - 1
	i := t.home(page)
	for t.index[i].entry != 0 && t.index[i].page != page {
		i = (i + 1) & mask
	}
	return i
}

// Access translates addr, returning true on a hit. On a miss the page is
// installed (evicting LRU), modelling the hardware walker finishing.
func (t *TLB) Access(addr uint64) bool {
	page := t.Page(addr)
	t.clock++
	i := t.find(page)
	if e := t.index[i].entry; e != 0 {
		t.entries[e-1].lastUse = t.clock
		t.Stats.Hits++
		return true
	}
	victim := t.victim()
	if victim < t.used {
		t.unindex(t.entries[victim].page)
		i = t.find(page)
	} else {
		t.used++
	}
	t.entries[victim] = entry{page: page, lastUse: t.clock}
	t.index[i] = slot{page: page, entry: int32(victim) + 1}
	t.Stats.Misses++
	return false
}

// victim returns the entry a miss fills: the first empty one, or else
// the least recently used.
func (t *TLB) victim() int {
	if t.used < len(t.entries) {
		return t.used
	}
	victim := 0
	for i := 1; i < len(t.entries); i++ {
		if t.entries[i].lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	return victim
}

// unindex removes resident page from the index, shifting later cells of
// its probe run back so no lookup crosses a hole (backward-shift
// deletion: no tombstones, so the table never needs rebuilding).
func (t *TLB) unindex(page uint64) {
	mask := len(t.index) - 1
	hole := t.find(page)
	for j := (hole + 1) & mask; t.index[j].entry != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole unless its home lies
		// cyclically in (hole, j].
		if h := t.home(t.index[j].page); (j-h)&mask >= (j-hole)&mask {
			t.index[hole] = t.index[j]
			hole = j
		}
	}
	t.index[hole] = slot{}
}

// Probe reports whether addr's page is resident without updating state.
func (t *TLB) Probe(addr uint64) bool {
	return t.index[t.find(t.Page(addr))].entry != 0
}

// Reset clears all entries and statistics.
func (t *TLB) Reset() {
	clear(t.entries)
	clear(t.index)
	t.used = 0
	t.clock = 0
	t.Stats = Stats{}
}
