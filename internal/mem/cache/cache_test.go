package cache

import (
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

func TestLRUEviction(t *testing.T) {
	c := tinyCache()
	c.Access(0x000, 1, 1) // set 0
	c.Access(0x100, 2, 2) // set 0, other way
	c.Access(0x000, 3, 3) // touch first: now 0x100 is LRU
	c.Access(0x200, 4, 4) // set 0: evicts 0x100
	if present, _ := c.Probe(0x100); present {
		t.Error("LRU line survived eviction")
	}
	if present, _ := c.Probe(0x000); !present {
		t.Error("MRU line was evicted")
	}
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
