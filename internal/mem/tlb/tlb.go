// Package tlb implements the per-thread data TLB. The paper charges a
// 160-cycle penalty on a DTLB miss, and a DTLB miss is one of the
// triggers for the STALL and FLUSH policies.
package tlb

import (
	"fmt"
	"math/bits"

	"dwarn/internal/packed"
)

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

// State is a snapshot of the TLB's translations and LRU clock (Stats
// are measurement state and excluded). Packed holds the valid entries
// in package packed's form, as one set of Size ways: each valid entry
// is its page and lastUse, both as differences from the previous valid
// entry's. Invalid entries are not stored; no lookup or replacement
// reads their fields.
type State struct {
	Size   int
	Clock  int64
	Packed []byte
}

// entryFields is the varint count of one valid entry in State.Packed.
const entryFields = 2

// Validate checks that st.Packed is a well-formed Size-entry snapshot.
func (st *State) Validate() error {
	if err := packed.Check(st.Packed, 1, st.Size, entryFields); err != nil {
		return fmt.Errorf("tlb: snapshot: %w", err)
	}
	return nil
}

// State snapshots the TLB's valid entries and replacement clock.
func (t *TLB) State() State {
	w := packed.NewWriter()
	var prev entry
	w.Set(len(t.entries))
	for i, e := range t.entries {
		if e.valid {
			w.Valid(i)
			w.Int(int64(e.page - prev.page))
			w.Int(e.lastUse - prev.lastUse)
			prev = e
		}
	}
	return State{Size: len(t.entries), Clock: t.clock, Packed: w.Bytes()}
}

// SetState overwrites the TLB from a snapshot taken on an identically
// sized TLB, zeroing the entries the snapshot holds none for. A size
// mismatch is an error and leaves the TLB unchanged; a malformed Packed
// body (one Validate rejects) is an error that leaves the TLB Reset.
func (t *TLB) SetState(st State) error {
	if st.Size != len(t.entries) {
		return fmt.Errorf("tlb: snapshot has %d entries, TLB has %d", st.Size, len(t.entries))
	}
	r := packed.NewReader(st.Packed)
	var prev entry
	mask := r.Set(len(t.entries))
	for i := range t.entries {
		if !packed.Valid(mask, i) {
			t.entries[i] = entry{}
			continue
		}
		prev.page += uint64(r.Int())
		prev.lastUse += r.Int()
		prev.valid = true
		t.entries[i] = prev
	}
	if err := r.Close(); err != nil {
		t.Reset()
		return fmt.Errorf("tlb: snapshot: %w", err)
	}
	t.clock = st.Clock
	return nil
}

// Reset clears all entries and statistics.
func (t *TLB) Reset() {
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.clock = 0
	t.Stats = Stats{}
}
