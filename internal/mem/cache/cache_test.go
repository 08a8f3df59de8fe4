package cache

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"dwarn/internal/config"
)

func tinyCache() *Cache {
	// 4 sets, 2 ways, 64B lines = 512 bytes.
	return New(config.CacheConfig{SizeBytes: 512, Ways: 2, LineBytes: 64, HitLatency: 1})
}

func TestMissThenHit(t *testing.T) {
	c := tinyCache()
	out, ready := c.Access(0x1000, 10, 20)
	if out != Miss || ready != 20 {
		t.Fatalf("first access: %v at %d, want miss at 20", out, ready)
	}
	out, ready = c.Access(0x1000, 25, 99)
	if out != Hit || ready != 25 {
		t.Fatalf("after fill: %v at %d, want hit at 25", out, ready)
	}
}

func TestDelayedHitMergesWithFill(t *testing.T) {
	c := tinyCache()
	c.Access(0x1000, 10, 50)
	out, ready := c.Access(0x1000, 20, 99)
	if out != DelayedHit || ready != 50 {
		t.Fatalf("in-flight access: %v at %d, want delayed-hit at 50", out, ready)
	}
	if c.Stats.DelayedHits != 1 {
		t.Errorf("delayed hits = %d", c.Stats.DelayedHits)
	}
}

func TestSameSetDifferentLines(t *testing.T) {
	c := tinyCache()
	// 4 sets of 64B lines: addresses 0x0 and 0x100 share set 0.
	c.Access(0x000, 1, 2)
	c.Access(0x100, 1, 2)
	if present, _ := c.Probe(0x000); !present {
		t.Error("way 0 line evicted with a free way available")
	}
	if present, _ := c.Probe(0x100); !present {
		t.Error("way 1 line missing")
	}
}

// TestLRUEviction infers the replacement policy of the L1D and L2 of
// every stock machine from black-box Access/Probe sequences, after
// CacheQuery (Vila et al.): fill one set, order its blocks by touching
// them, then insert fresh blocks of the same set one at a time and
// probe which resident block each insert evicted. The eviction order
// recovered must be LRU's: least recently used first among arrived
// lines, an in-flight line kept while an arrived one remains, and plain
// LRU once the whole set is in flight (victim's fallback). Each
// scenario runs in the first, a middle and the last set, over several
// touch orders.
func TestLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, name := range config.Machines() {
		m, err := config.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, level := range []struct {
			name string
			cfg  config.CacheConfig
		}{{"l1d", m.DCache}, {"l2", m.L2}} {
			t.Run(name+"/"+level.name, func(t *testing.T) {
				g := level.cfg
				ways, sets := g.Ways, g.Sets()
				for _, set := range []int{0, sets / 2, sets - 1} {
					// block(i) is the set's i-th distinct line.
					block := func(i int) uint64 { return uint64((i*sets + set) * g.LineBytes) }
					for trial := 0; trial < 4; trial++ {
						order := rng.Perm(ways)

						// Arrived: every resident line's data is in.
						c := New(g)
						for i := 0; i < ways; i++ {
							c.Access(block(i), 1, 1)
						}
						touch(t, c, block, order, 10, Hit)
						if got := probeEvictions(t, c, block, ways, 100, 100); !slices.Equal(got, order) {
							t.Fatalf("set %d, arrived lines touched %v: evicted %v, want LRU order", set, order, got)
						}

						// One in flight: block 0 is the oldest line but its
						// fill is due at 1000, so every arrived line goes
						// first, least recently used first.
						c = New(g)
						c.Access(block(0), 1, 1000)
						for i := 1; i < ways; i++ {
							c.Access(block(i), 1+int64(i), 1+int64(i))
						}
						arrived := slices.DeleteFunc(slices.Clone(order), func(i int) bool { return i == 0 })
						touch(t, c, block, arrived, 10, Hit)
						if got := probeEvictions(t, c, block, ways-1, 100, 100); !slices.Equal(got, arrived) {
							t.Fatalf("set %d, block 0 in flight, arrived touched %v: evicted %v, want LRU order among arrived lines", set, arrived, got)
						}
						if present, _ := c.Probe(block(0)); !present {
							t.Fatalf("set %d: the in-flight line was evicted while arrived lines remained", set)
						}

						// Whole set in flight, inserts too: plain LRU.
						c = New(g)
						for i := 0; i < ways; i++ {
							c.Access(block(i), 1+int64(i), 1000)
						}
						touch(t, c, block, order, 10, DelayedHit)
						if got := probeEvictions(t, c, block, ways, 100, 1000); !slices.Equal(got, order) {
							t.Fatalf("set %d, whole set in flight, touched %v: evicted %v, want LRU order", set, order, got)
						}
					}
				}
			})
		}
	}
}

// touch accesses the resident blocks in order, one cycle apart from
// now, each expected to be outcome.
func touch(t *testing.T, c *Cache, block func(int) uint64, order []int, now int64, want Outcome) {
	t.Helper()
	for k, i := range order {
		if out, _ := c.Access(block(i), now+int64(k), 0); out != want {
			t.Fatalf("touching block %d: %v, want %v", i, out, want)
		}
	}
}

// probeEvictions inserts n fresh blocks of the set at cycle now, each
// arriving at fill, and returns which resident block (0..ways-1) each
// insert evicted, found by probing every resident block after it.
func probeEvictions(t *testing.T, c *Cache, block func(int) uint64, n int, now, fill int64) []int {
	t.Helper()
	ways := c.Config().Ways
	gone := make([]bool, ways)
	var evicted []int
	for j := 0; j < n; j++ {
		if out, _ := c.Access(block(ways+j), now, fill); out != Miss {
			t.Fatalf("inserting a fresh block: %v, want miss", out)
		}
		for i := 0; i < ways; i++ {
			if present, _ := c.Probe(block(i)); !present && !gone[i] {
				gone[i] = true
				evicted = append(evicted, i)
			}
		}
		if len(evicted) != j+1 {
			t.Fatalf("insert %d evicted %d resident blocks in all, want %d", j, len(evicted), j+1)
		}
	}
	return evicted
}

func TestInFlightProtection(t *testing.T) {
	c := tinyCache()
	// Two in-flight fills fill set 0.
	c.Access(0x000, 1, 100)
	c.Access(0x100, 2, 100)
	// A third miss at cycle 3 must evict one (whole set in flight),
	// but once one line has arrived, arrived lines are preferred.
	c.Access(0x200, 3, 100)
	inFlight := 0
	for _, a := range []uint64{0x000, 0x100, 0x200} {
		if present, _ := c.Probe(a); present {
			inFlight++
		}
	}
	if inFlight != 2 {
		t.Fatalf("expected 2 resident lines, got %d", inFlight)
	}

	c2 := tinyCache()
	c2.Access(0x000, 1, 5)    // arrives at 5
	c2.Access(0x100, 2, 100)  // still in flight at 10
	c2.Access(0x200, 10, 200) // must evict the ARRIVED line, not the in-flight one
	if present, _ := c2.Probe(0x100); !present {
		t.Error("in-flight line evicted while an arrived line was available")
	}
	if present, _ := c2.Probe(0x000); present {
		t.Error("arrived LRU line survived over in-flight protection")
	}
}

func TestTouchInstallsReady(t *testing.T) {
	c := tinyCache()
	c.Touch(0x400)
	out, ready := c.Access(0x400, 7, 99)
	if out != Hit || ready != 7 {
		t.Fatalf("after Touch: %v at %d", out, ready)
	}
	if c.Stats.Accesses() != 1 {
		t.Errorf("Touch counted as an access: %d", c.Stats.Accesses())
	}
}

func TestInvalidate(t *testing.T) {
	c := tinyCache()
	c.Touch(0x800)
	if !c.Invalidate(0x800) {
		t.Fatal("Invalidate missed a present line")
	}
	if c.Invalidate(0x800) {
		t.Fatal("Invalidate hit an absent line")
	}
	if present, _ := c.Probe(0x800); present {
		t.Error("line present after invalidate")
	}
}

func TestReset(t *testing.T) {
	c := tinyCache()
	c.Access(0x1000, 1, 2)
	c.Reset()
	if c.Stats.Accesses() != 0 {
		t.Error("stats survived reset")
	}
	if present, _ := c.Probe(0x1000); present {
		t.Error("line survived reset")
	}
}

func TestLineAddr(t *testing.T) {
	c := tinyCache()
	if got := c.LineAddr(0x12345); got != 0x12340 {
		t.Errorf("LineAddr = %#x", got)
	}
}

func TestStatsMissRate(t *testing.T) {
	c := tinyCache()
	c.Access(0x0, 1, 2)  // miss
	c.Access(0x0, 5, 6)  // hit
	c.Access(0x40, 7, 8) // miss (set 1)
	if got := c.Stats.MissRate(); got < 0.66 || got > 0.67 {
		t.Errorf("miss rate %v, want 2/3", got)
	}
	var empty Stats
	if empty.MissRate() != 0 {
		t.Error("empty stats miss rate not 0")
	}
}

func TestCapacitySweep(t *testing.T) {
	c := tinyCache()
	// Touch 16 distinct lines (twice the capacity); at most 8 survive.
	for i := 0; i < 16; i++ {
		c.Touch(uint64(i) * 64)
	}
	resident := 0
	for i := 0; i < 16; i++ {
		if present, _ := c.Probe(uint64(i) * 64); present {
			resident++
		}
	}
	if resident != 8 {
		t.Errorf("%d lines resident, capacity is 8", resident)
	}
}

func TestQuickNoDuplicateLines(t *testing.T) {
	// Property: after arbitrary accesses, a line is present at most once
	// (indirectly: Probe then Invalidate then Probe must report absent).
	f := func(addrs []uint16) bool {
		c := tinyCache()
		for i, a := range addrs {
			c.Access(uint64(a), int64(i), int64(i+1))
		}
		for _, a := range addrs {
			c.Invalidate(uint64(a))
			if present, _ := c.Probe(uint64(a)); present {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStatsBalance(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tinyCache()
		for i, a := range addrs {
			c.Access(uint64(a), int64(i), int64(i))
		}
		return c.Stats.Accesses() == uint64(len(addrs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
