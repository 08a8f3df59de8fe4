package tlb

import "testing"

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

// Restoring a partly filled TLB's snapshot into a fresh one gives the
// same hits and misses from then on, and the same final snapshot.
func TestStateRoundTripBehaviour(t *testing.T) {
	orig := New(8, 4096)
	for _, p := range []uint64{3, 9, 3, 12, 40} {
		orig.Access(p << 12)
	}
	restored := New(8, 4096)
	restored.Access(77 << 12) // SetState must overwrite it
	if err := restored.SetState(orig.State()); err != nil {
		t.Fatal(err)
	}
	for i, p := range []uint64{77, 3, 5, 6, 7, 8, 9, 10, 11, 40, 12, 3, 77} {
		if got, want := restored.Access(p<<12), orig.Access(p<<12); got != want {
			t.Fatalf("access %d (page %d): hit %v, original %v", i, p, got, want)
		}
	}
	want, got := orig.State(), restored.State()
	if want.Clock != got.Clock || string(want.Packed) != string(got.Packed) {
		t.Fatal("final snapshots differ")
	}
	if err := restored.SetState(State{Size: 4}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
