package tlb

import (
	"math/rand/v2"
	"slices"
	"testing"

	"dwarn/internal/config"
)

func TestMissThenHit(t *testing.T) {
	tb := New(4, 8192)
	if tb.Access(0x2000) {
		t.Fatal("cold access hit")
	}
	if !tb.Access(0x2000) {
		t.Fatal("second access missed")
	}
	if !tb.Access(0x2fff) {
		t.Fatal("same-page access missed")
	}
	if tb.Access(0x4000) {
		t.Fatal("new page hit")
	}
}

func TestLRUCapacity(t *testing.T) {
	tb := New(2, 8192)
	tb.Access(0 * 8192)
	tb.Access(1 * 8192)
	tb.Access(0 * 8192) // page 0 now MRU
	tb.Access(2 * 8192) // evicts page 1
	if !tb.Probe(0 * 8192) {
		t.Error("MRU page evicted")
	}
	if tb.Probe(1 * 8192) {
		t.Error("LRU page survived")
	}
	if !tb.Probe(2 * 8192) {
		t.Error("new page absent")
	}
}

func TestProbeDoesNotInstall(t *testing.T) {
	tb := New(4, 8192)
	if tb.Probe(0x9000) {
		t.Fatal("probe hit cold TLB")
	}
	if tb.Access(0x9000) {
		t.Fatal("probe installed the page")
	}
}

func TestStats(t *testing.T) {
	tb := New(4, 8192)
	tb.Access(0x0)
	tb.Access(0x0)
	tb.Access(0x0)
	if tb.Stats.Misses != 1 || tb.Stats.Hits != 2 {
		t.Errorf("stats %+v", tb.Stats)
	}
	if r := tb.Stats.MissRate(); r < 0.33 || r > 0.34 {
		t.Errorf("miss rate %v", r)
	}
}

func TestReset(t *testing.T) {
	tb := New(4, 8192)
	tb.Access(0x0)
	tb.Reset()
	if tb.Probe(0x0) {
		t.Error("entry survived reset")
	}
	if tb.Stats.Misses != 0 {
		t.Error("stats survived reset")
	}
}

func TestPageNumber(t *testing.T) {
	tb := New(4, 8192)
	if tb.Page(8192*3+17) != 3 {
		t.Errorf("Page() = %d", tb.Page(8192*3+17))
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 8192) },
		func() { New(4, 1000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFullAssociativity(t *testing.T) {
	tb := New(8, 8192)
	for i := 0; i < 8; i++ {
		tb.Access(uint64(i) * 8192)
	}
	for i := 0; i < 8; i++ {
		if !tb.Probe(uint64(i) * 8192) {
			t.Errorf("page %d evicted below capacity", i)
		}
	}
}

func TestEmptyStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty miss rate not 0")
	}
}

// refTLB is the reference model the indexed TLB must match: every
// lookup scans all entries, and a miss fills the first invalid entry,
// else the least recently used one.
type refTLB struct {
	entries []refEntry
	clock   int64
	stats   Stats
}

type refEntry struct {
	page    uint64
	valid   bool
	lastUse int64
}

func (r *refTLB) access(page uint64) bool {
	r.clock++
	victim := 0
	for i := range r.entries {
		e := &r.entries[i]
		if e.valid && e.page == page {
			e.lastUse = r.clock
			r.stats.Hits++
			return true
		}
		if !r.entries[victim].valid {
			continue
		}
		if !e.valid || e.lastUse < r.entries[victim].lastUse {
			victim = i
		}
	}
	r.entries[victim] = refEntry{page: page, valid: true, lastUse: r.clock}
	r.stats.Misses++
	return false
}

func (r *refTLB) resident(page uint64) bool {
	for _, e := range r.entries {
		if e.valid && e.page == page {
			return true
		}
	}
	return false
}

// TestIndexMatchesLinearScan drives the indexed TLB and the reference
// model with the same random page streams (hot sets smaller and larger
// than the TLB, page numbers spread over the whole 64-bit space) and
// requires identical hit/miss outcomes, identical statistics, and after
// every access an identical resident set over the whole page domain, so
// each eviction picks the reference's victim. Resets land mid-stream,
// both on a partly filled and on a full table.
func TestIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, n := range []int{1, 2, 3, 7, 8, 16, 128} {
		for _, spread := range []int{n / 2, n, n + 1, 2 * n, 4 * n} {
			if spread == 0 {
				continue
			}
			// The domain's page numbers: small, and scattered ones
			// whose high bits differ.
			domain := make([]uint64, spread)
			for i := range domain {
				domain[i] = uint64(i)
				if i%2 == 1 {
					domain[i] = rng.Uint64() >> 13
				}
			}
			tb := New(n, 8192)
			ref := &refTLB{entries: make([]refEntry, n)}
			for step := 0; step < 4000; step++ {
				if step%1500 == 1499 {
					tb.Reset()
					*ref = refTLB{entries: make([]refEntry, n)}
				}
				// Skewed: a hot quarter of the domain takes half the
				// accesses, so the LRU order is exercised, not just
				// churned.
				k := rng.IntN(len(domain))
				if rng.IntN(2) == 0 {
					k = rng.IntN((len(domain) + 3) / 4)
				}
				page := domain[k]
				if got, want := tb.Access(page*8192+uint64(rng.IntN(8192))), ref.access(page); got != want {
					t.Fatalf("n=%d spread=%d step %d: page %#x hit=%v, reference %v", n, spread, step, page, got, want)
				}
				for _, p := range domain {
					if got, want := tb.Probe(p*8192), ref.resident(p); got != want {
						t.Fatalf("n=%d spread=%d step %d: page %#x resident=%v, reference %v", n, spread, step, p, got, want)
					}
				}
				if tb.Stats != ref.stats {
					t.Fatalf("n=%d spread=%d step %d: stats %+v, reference %+v", n, spread, step, tb.Stats, ref.stats)
				}
			}
		}
	}
}

// TestDTLBEvictsLRU infers the replacement policy of every stock
// machine's DTLB from black-box Access/Probe sequences, as the cache's
// TestLRUEviction does after CacheQuery (Vila et al.): fill the TLB,
// order its pages by touching them, then install fresh pages one at a
// time and probe which resident page each install evicted. The order
// recovered must be LRU's.
func TestDTLBEvictsLRU(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, name := range config.Machines() {
		m, err := config.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			n, pb := m.DTLBEntries, uint64(m.PageBytes)
			// Resident pages are spread out; fresh pages come after them.
			page := func(i int) uint64 { return uint64(i) * 977 * pb }
			for trial := 0; trial < 4; trial++ {
				tb := New(n, m.PageBytes)
				for i := 0; i < n; i++ {
					if tb.Access(page(i)) {
						t.Fatalf("cold page %d hit", i)
					}
				}
				order := rng.Perm(n)
				for _, i := range order {
					if !tb.Access(page(i)) {
						t.Fatalf("resident page %d missed", i)
					}
				}
				evicted := make([]int, 0, n)
				gone := make([]bool, n)
				for k := 0; k < n; k++ {
					if tb.Access(page(n + k)) {
						t.Fatalf("fresh page %d hit", n+k)
					}
					victim := -1
					for i := 0; i < n; i++ {
						if !gone[i] && !tb.Probe(page(i)) {
							if victim >= 0 {
								t.Fatalf("one install evicted pages %d and %d", victim, i)
							}
							victim = i
						}
					}
					if victim < 0 {
						t.Fatalf("install %d evicted nothing from a full TLB", k)
					}
					gone[victim] = true
					evicted = append(evicted, victim)
				}
				if !slices.Equal(evicted, order) {
					t.Fatalf("touched %v: evicted %v, want LRU order", order, evicted)
				}
			}
		})
	}
}
