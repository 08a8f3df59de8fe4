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
	valid   bool
	lastUse int64
}

// TLB is a fully associative translation buffer with LRU replacement.
// Fully associative is the common choice for small DTLBs (the 21264's
// DTLB was fully associative) and sidesteps set-conflict artifacts in
// the synthetic address streams.
type TLB struct {
	entries  []entry
	pageBits uint
	clock    int64

	// Stats is exported state the owner may read or reset.
	Stats Stats
}

// New builds a TLB with nEntries entries over pageBytes-sized pages.
func New(nEntries, pageBytes int) *TLB {
	if nEntries <= 0 {
		panic("tlb: need at least one entry")
	}
	if pageBytes <= 0 || pageBytes&(pageBytes-1) != 0 {
		panic("tlb: page size must be a positive power of two")
	}
	return &TLB{
		entries:  make([]entry, nEntries),
		pageBits: uint(bits.TrailingZeros(uint(pageBytes))),
	}
}

// Page returns the page number of addr.
func (t *TLB) Page(addr uint64) uint64 { return addr >> t.pageBits }

// Access translates addr, returning true on a hit. On a miss the page is
// installed (evicting LRU), modelling the hardware walker finishing.
func (t *TLB) Access(addr uint64) bool {
	page := t.Page(addr)
	t.clock++
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.page == page {
			e.lastUse = t.clock
			t.Stats.Hits++
			return true
		}
		if !t.entries[victim].valid {
			continue
		}
		if !e.valid || e.lastUse < t.entries[victim].lastUse {
			victim = i
		}
	}
	t.entries[victim] = entry{page: page, valid: true, lastUse: t.clock}
	t.Stats.Misses++
	return false
}

// Probe reports whether addr's page is resident without updating state.
func (t *TLB) Probe(addr uint64) bool {
	page := t.Page(addr)
	for i := range t.entries {
		if t.entries[i].valid && t.entries[i].page == page {
			return true
		}
	}
	return false
}

// Reset clears all entries and statistics.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.clock = 0
	t.Stats = Stats{}
}
