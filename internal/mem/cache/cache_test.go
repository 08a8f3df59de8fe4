package cache

import (
	"bytes"
	"math/rand"
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

// A snapshot holds only valid lines: the stale tag and stamps an
// Invalidate leaves in a way are dropped, and SetState zeroes that way.
// The restored cache must still behave exactly like the original —
// same outcome and ready cycle on every follow-on access, same probes,
// and the same final snapshot. A 9-way cache covers multi-byte set
// bitmaps.
func TestStateRoundTripBehaviour(t *testing.T) {
	for _, cfg := range []config.CacheConfig{
		{SizeBytes: 2 << 10, Ways: 4, LineBytes: 64, HitLatency: 1},
		{SizeBytes: 9 * 64 * 4, Ways: 9, LineBytes: 64, HitLatency: 1},
	} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			// 64 lines over a cache of 32 or 36: sets conflict and evict.
			addr := func() uint64 { return uint64(rng.Intn(64)) * 64 }
			now := int64(0)
			// drive applies one random operation to every cache in cs and
			// checks that they all answer alike.
			drive := func(cs ...*Cache) {
				now += int64(rng.Intn(4))
				a := addr()
				switch op := rng.Intn(5); {
				case op < 3:
					fill := now + 1 + int64(rng.Intn(30))
					out0, at0 := cs[0].Access(a, now, fill)
					for _, c := range cs[1:] {
						if out, at := c.Access(a, now, fill); out != out0 || at != at0 {
							t.Fatalf("%d-way seed %d: access %#x at %d: %v@%d, original %v@%d",
								cfg.Ways, seed, a, now, out, at, out0, at0)
						}
					}
				case op == 3:
					for _, c := range cs {
						c.Touch(a)
					}
				default:
					was0 := cs[0].Invalidate(a)
					for _, c := range cs[1:] {
						if was := c.Invalidate(a); was != was0 {
							t.Fatalf("%d-way seed %d: invalidate %#x: %v, original %v", cfg.Ways, seed, a, was, was0)
						}
					}
				}
			}
			orig := New(cfg)
			for i := 0; i < 400; i++ {
				drive(orig)
			}
			restored := New(cfg)
			restored.Touch(0x40) // SetState must overwrite, not rely on a cold cache
			if err := restored.SetState(orig.State()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 400; i++ {
				drive(orig, restored)
			}
			for a := uint64(0); a < 64*64; a += 64 {
				p0, r0 := orig.Probe(a)
				if p, r := restored.Probe(a); p != p0 || r != r0 {
					t.Fatalf("%d-way seed %d: probe %#x: %v@%d, original %v@%d", cfg.Ways, seed, a, p, r, p0, r0)
				}
			}
			want, got := orig.State(), restored.State()
			if want.UseClock != got.UseClock || !bytes.Equal(want.Packed, got.Packed) {
				t.Fatalf("%d-way seed %d: final snapshots differ", cfg.Ways, seed)
			}
		}
	}
}

// A snapshot of the wrong geometry, or with a malformed body, is an
// error: the first leaves the cache as it was, the second leaves it
// empty rather than half restored.
func TestSetStateRejects(t *testing.T) {
	src := tinyCache()
	src.Touch(0x1000)
	src.Touch(0x2040)
	st := src.State()

	c := tinyCache()
	c.Touch(0x3000)
	wrong := st
	wrong.Sets *= 2
	if err := c.SetState(wrong); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if ok, _ := c.Probe(0x3000); !ok {
		t.Fatal("geometry mismatch changed the cache")
	}
	cut := st
	cut.Packed = st.Packed[:len(st.Packed)-1]
	if err := c.SetState(cut); err == nil || cut.Validate() == nil {
		t.Fatal("truncated snapshot accepted")
	}
	for _, a := range []uint64{0x1000, 0x2040, 0x3000} {
		if ok, _ := c.Probe(a); ok {
			t.Fatalf("line %#x survived a malformed restore", a)
		}
	}
	if err := st.Validate(); err != nil {
		t.Fatalf("good snapshot: %v", err)
	}
}
