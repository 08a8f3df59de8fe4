// Package hierarchy wires the L1 instruction cache, L1 data cache,
// unified L2, per-thread data TLBs, and main memory into the timing
// model the pipeline consumes.
//
// Latencies follow the paper's Table 3: 1-cycle L1s, an L1→L2 path of 10
// cycles (15 on the deep machine), 100 cycles to main memory (200 deep),
// and a 160-cycle DTLB miss penalty. All latencies assume no resource
// conflicts, exactly as the paper states for its simulator.
package hierarchy

import (
	"dwarn/internal/config"
	"dwarn/internal/mem/cache"
	"dwarn/internal/mem/tlb"
)

// Level identifies where an access was satisfied.
type Level uint8

const (
	// LevelL1 means the L1 cache (ready or in-flight line).
	LevelL1 Level = iota
	// LevelL2 means the unified L2.
	LevelL2
	// LevelMem means main memory.
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "memory"
	}
	return "Level(?)"
}

// DataResult describes the timing of one data-side access.
type DataResult struct {
	// L1Miss is true when the line was absent from the L1 (a true miss
	// that allocated a fill, not a merge into an earlier one).
	L1Miss bool
	// MergedMiss is true when the line was already in flight: the access
	// waits for the earlier fill (MSHR merge). The load still observes a
	// data-cache miss — its data is not there — so fetch policies count
	// it as one.
	MergedMiss bool
	// L2Miss is true when the access went to main memory (only possible
	// when L1Miss is true).
	L2Miss bool
	// TLBMiss is true when the DTLB missed; the penalty is already
	// included in CompleteAt.
	TLBMiss bool
	// Level is where the data came from.
	Level Level
	// CompleteAt is the cycle the data is available to consumers.
	CompleteAt int64
}

// SawMiss reports whether the access observed an L1 data miss (true or
// merged) — the event the DWarn/DG counters track.
func (r DataResult) SawMiss() bool { return r.L1Miss || r.MergedMiss }

// ThreadStats aggregates per-thread memory behaviour. Loads and stores
// are counted separately because the paper's Table 2(a) miss rates are
// per dynamic load.
type ThreadStats struct {
	Loads         uint64
	LoadL1Misses  uint64
	LoadL2Misses  uint64
	LoadMerged    uint64
	Stores        uint64
	StoreL1Misses uint64
	StoreL2Misses uint64
	TLBMisses     uint64
	IFetches      uint64
	IMisses       uint64
}

// LoadL1MissRate returns L1 load misses per dynamic load (Table 2a col 2).
func (s *ThreadStats) LoadL1MissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadL1Misses) / float64(s.Loads)
}

// LoadL2MissRate returns L2 load misses per dynamic load (Table 2a col 3).
func (s *ThreadStats) LoadL2MissRate() float64 {
	if s.Loads == 0 {
		return 0
	}
	return float64(s.LoadL2Misses) / float64(s.Loads)
}

// L1ToL2Ratio returns the fraction of L1 load misses that also missed in
// L2 (Table 2a col 4).
func (s *ThreadStats) L1ToL2Ratio() float64 {
	if s.LoadL1Misses == 0 {
		return 0
	}
	return float64(s.LoadL2Misses) / float64(s.LoadL1Misses)
}

// Hierarchy is the full memory system for one simulated core. Caches are
// shared by all hardware contexts; the DTLB is per thread.
type Hierarchy struct {
	cfg  *config.Processor
	L1I  *cache.Cache
	L1D  *cache.Cache
	L2   *cache.Cache
	DTLB []*tlb.TLB

	// Threads holds per-thread statistics indexed by hardware context.
	Threads []ThreadStats
}

// New builds the hierarchy for cfg with nThreads contexts.
func New(cfg *config.Processor, nThreads int) *Hierarchy {
	h := &Hierarchy{
		cfg:     cfg,
		L1I:     cache.New(cfg.ICache),
		L1D:     cache.New(cfg.DCache),
		L2:      cache.New(cfg.L2),
		DTLB:    make([]*tlb.TLB, nThreads),
		Threads: make([]ThreadStats, nThreads),
	}
	for i := range h.DTLB {
		h.DTLB[i] = tlb.New(cfg.DTLBEntries, cfg.PageBytes)
	}
	return h
}

// Release hands the caches' line arrays back to their pool for the
// next machine. Nothing may use the hierarchy afterwards; a second
// Release is a no-op.
func (h *Hierarchy) Release() {
	h.L1I.Release()
	h.L1D.Release()
	h.L2.Release()
}

// Load performs a data load for thread at addr starting at cycle now and
// returns its timing.
func (h *Hierarchy) Load(thread int, addr uint64, now int64) DataResult {
	st := &h.Threads[thread]
	st.Loads++
	r := h.dataAccess(thread, addr, now)
	if r.L1Miss {
		st.LoadL1Misses++
		if r.L2Miss {
			st.LoadL2Misses++
		}
	}
	if r.MergedMiss {
		st.LoadMerged++
	}
	if r.TLBMiss {
		st.TLBMisses++
	}
	return r
}

// Store performs a data store (write-allocate) for thread at addr.
// Stores retire through a store buffer, so the caller typically ignores
// CompleteAt, but the access still moves cache and TLB state.
func (h *Hierarchy) Store(thread int, addr uint64, now int64) DataResult {
	st := &h.Threads[thread]
	st.Stores++
	r := h.dataAccess(thread, addr, now)
	if r.L1Miss {
		st.StoreL1Misses++
		if r.L2Miss {
			st.StoreL2Misses++
		}
	}
	if r.TLBMiss {
		st.TLBMisses++
	}
	return r
}

// dataAccess is the shared load/store path: DTLB, then L1D, then L2,
// then memory.
func (h *Hierarchy) dataAccess(thread int, addr uint64, now int64) DataResult {
	var r DataResult
	start := now
	if !h.DTLB[thread].Access(addr) {
		r.TLBMiss = true
		start += int64(h.cfg.TLBMissPenalty)
	}

	// The L1 fill time depends on where the data comes from, so decide
	// the full path first by probing, then perform the stateful accesses
	// with the right fill stamps.
	l1Latency := int64(h.cfg.DCache.HitLatency)
	present, readyAt := h.L1D.Probe(addr)
	switch {
	case present && readyAt <= start+l1Latency:
		h.L1D.Access(addr, start, 0) // records the hit
		r.Level = LevelL1
		r.CompleteAt = start + l1Latency
	case present:
		// In-flight line: merge with the pending fill.
		h.L1D.Access(addr, start, 0)
		r.MergedMiss = true
		r.Level = LevelL1
		r.CompleteAt = readyAt
	default:
		r.L1Miss = true
		l2At := start + l1Latency + int64(h.cfg.L1ToL2Latency)
		l2Out, l2Ready := h.L2.Access(addr, l2At, l2At+int64(h.cfg.MemLatency))
		switch l2Out {
		case cache.Hit:
			r.Level = LevelL2
			r.CompleteAt = l2At
		case cache.DelayedHit:
			r.Level = LevelL2
			r.CompleteAt = l2Ready
		default: // cache.Miss
			r.L2Miss = true
			r.Level = LevelMem
			r.CompleteAt = l2At + int64(h.cfg.MemLatency)
		}
		h.L1D.Access(addr, start, r.CompleteAt)
	}
	return r
}

// FetchResult describes one instruction-cache access.
type FetchResult struct {
	// Miss is true when the I-cache missed (true miss or in-flight wait).
	Miss bool
	// CompleteAt is the cycle the fetch block is available (now on a hit).
	CompleteAt int64
}

// Fetch accesses the I-cache for thread at pc. Instruction fetch does
// not consult the DTLB (the paper models only a data TLB).
func (h *Hierarchy) Fetch(thread int, pc uint64, now int64) FetchResult {
	st := &h.Threads[thread]
	st.IFetches++
	l1Latency := int64(h.cfg.ICache.HitLatency)
	present, readyAt := h.L1I.Probe(pc)
	switch {
	case present && readyAt <= now:
		h.L1I.Access(pc, now, 0)
		return FetchResult{CompleteAt: now}
	case present:
		h.L1I.Access(pc, now, 0)
		st.IMisses++
		return FetchResult{Miss: true, CompleteAt: readyAt}
	}
	st.IMisses++
	l2At := now + l1Latency + int64(h.cfg.L1ToL2Latency)
	l2Out, l2Ready := h.L2.Access(pc, l2At, l2At+int64(h.cfg.MemLatency))
	var complete int64
	switch l2Out {
	case cache.Hit:
		complete = l2At
	case cache.DelayedHit:
		complete = l2Ready
	default:
		complete = l2At + int64(h.cfg.MemLatency)
	}
	h.L1I.Access(pc, now, complete)
	return FetchResult{Miss: true, CompleteAt: complete}
}

// Reset clears all cache, TLB, and statistic state.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.L2.Reset()
	for _, t := range h.DTLB {
		t.Reset()
	}
	for i := range h.Threads {
		h.Threads[i] = ThreadStats{}
	}
}

// ResetStats clears statistics but keeps cache/TLB contents (used after
// warmup so measured miss rates reflect steady state).
func (h *Hierarchy) ResetStats() {
	h.L1I.Stats = cache.Stats{}
	h.L1D.Stats = cache.Stats{}
	h.L2.Stats = cache.Stats{}
	for _, t := range h.DTLB {
		t.Stats = tlb.Stats{}
	}
	for i := range h.Threads {
		h.Threads[i] = ThreadStats{}
	}
}

// TouchI re-installs pc's line in the L1 instruction cache as present
// and ready, without counting an access. The fetch engine calls it when
// it consumes a forwarded fill whose cache copy may have been evicted.
func (h *Hierarchy) TouchI(pc uint64) { h.L1I.Touch(pc) }
