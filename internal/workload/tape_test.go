package workload

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dwarn/internal/isa"
)

// TestTapeReadersMatchPrivateStream: staggered readers of one tape, on
// every built-in profile, deliver the uops, wrong-path PCs and
// wrong-path episodes of a private stream over the same core, before
// and after the budget is spent. The budget is cut to spentAt chunks,
// so the first readers leave the tape there on clones of the tape's
// generator while the later ones still read the tape. Every other
// reader asked for read-ahead: it decodes the tape inline and hands its
// clone to a producer goroutine once past the end. Each reader brings
// its own copy of the core, as each run of a group does, and lends its
// program to the tape's generator.
func TestTapeReadersMatchPrivateStream(t *testing.T) {
	const (
		readers = 4
		spentAt = 6
		uops    = 10 * chunkUops
		stagger = chunkUops + 137 // a reader starts once its predecessor has read this many
	)
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			core := buildCore(MustGet(name), 5, 1<<40)
			budget := &TapeBudget{limit: spentAt * chunkBytes}
			set := NewTapeSet(budget)
			for range readers {
				set.Hold()
			}
			var wg sync.WaitGroup
			errs := make([]error, readers)
			next := make(chan struct{}) // closed when the previous reader is far enough along
			close(next)
			for i := range readers {
				go1 := next
				next = make(chan struct{})
				wg.Add(1)
				go func(i int, start <-chan struct{}, passed chan<- struct{}) {
					defer wg.Done()
					var once sync.Once
					release := func() { once.Do(func() { close(passed) }) }
					defer release() // a reader that fails early still lets the next one start
					<-start
					own := buildCore(MustGet(name), 5, 1<<40)
					streams, ok := set.Streams([]*Core{own})
					if !ok {
						errs[i] = fmt.Errorf("reader %d: set refused its own cores", i)
						return
					}
					s := streams[0]
					ahead := i%2 == 1
					if ahead {
						s.ReadAhead()
						defer s.Stop()
					}
					errs[i] = compareStreams(s, core.Generator().Stream(), uops, func(n int) {
						if n == stagger {
							release()
						}
						if n%(i+2) == 0 {
							runtime.Gosched()
						}
					})
					if errs[i] == nil && (s.ra != nil) != ahead {
						errs[i] = fmt.Errorf("reader %d (read-ahead %v) off the tape: producer running %v", i, ahead, s.ra != nil)
					}
				}(i, go1, next)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			if got := set.Chunks(); got != spentAt {
				t.Errorf("tape holds %d chunks, want %d (the budget)", got, spentAt)
			}
			if got := budget.Used(); got != spentAt*chunkBytes {
				t.Errorf("budget used %d, want %d", got, spentAt*chunkBytes)
			}
			for i := range readers {
				if released := set.Drop(); released != (i == readers-1) {
					t.Fatalf("drop %d of %d released the set: %v", i+1, readers, released)
				}
			}
			if got := budget.Used(); got != 0 {
				t.Errorf("budget used %d after release, want 0", got)
			}
			if _, ok := set.Streams([]*Core{core}); ok {
				t.Error("a released set still hands out streams")
			}
		})
	}
}

// TestTapeReaderLeavesAndTapeRegrows: a reader at a tape's end leaves
// the tape when no other run of the group holds the set, or when the
// budget is spent, and the tape grows again for a later reader once it
// has company and budget. Every reader delivers a private stream's uops
// throughout.
func TestTapeReaderLeavesAndTapeRegrows(t *testing.T) {
	core := buildCore(MustGet("gzip"), 5, 1<<40)
	budget := &TapeBudget{limit: 4 * chunkBytes}
	set := NewTapeSet(budget)
	set.Hold()
	set.Hold()
	read := func(name string, chunks int, wantLen int, src, want *Stream) {
		t.Helper()
		if err := compareStreams(src, want, chunks*chunkUops, func(int) {}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := set.Chunks(); got != wantLen {
			t.Fatalf("%s: tape holds %d chunks, want %d", name, got, wantLen)
		}
	}
	reader := func() (*Stream, *Stream) {
		streams, ok := set.Streams([]*Core{buildCore(MustGet("gzip"), 5, 1<<40)})
		if !ok {
			t.Fatal("set refused its own cores")
		}
		return streams[0], core.Generator().Stream()
	}

	a, aWant := reader()
	read("with company", 2, 2, a, aWant)
	set.Drop()
	read("alone", 3, 2, a, aWant)
	set.Hold()
	b, bWant := reader()
	read("with company again", 6, 4, b, bWant)
	budget.limit = 8 * chunkBytes
	c, cWant := reader()
	read("once the budget frees", 6, 6, c, cWant)
}

// compareStreams reads n uops from got and want, with a wrong-path
// episode every 97 uops, and reports the first difference. step is
// called after each uop with the count read so far.
func compareStreams(got, want *Stream, n int, step func(int)) error {
	for i := 0; i < n; i++ {
		a, b := nextUop(got), nextUop(want)
		if a != b {
			return fmt.Errorf("uop %d: tape %+v, private %+v", i, a, b)
		}
		if i%97 == 0 {
			if pa, pb := got.WrongPathPC(&a, i%2 == 0), want.WrongPathPC(&b, i%2 == 0); pa != pb {
				return fmt.Errorf("uop %d: wrong-path pc %#x tape, %#x private", i, pa, pb)
			}
			got.StartWrongPath(uint64(i), a.PC)
			want.StartWrongPath(uint64(i), b.PC)
			for j := 0; j < 5; j++ {
				if wa, wb := nextWrongUop(got), nextWrongUop(want); wa != wb {
					return fmt.Errorf("uop %d wrong-path %d: tape %+v, private %+v", i, j, wa, wb)
				}
			}
		}
		step(i + 1)
	}
	return nil
}

// TestTapeRecordsRoundTrip: every record of 64 chunks per profile
// unpacks to exactly the uop it was packed from.
func TestTapeRecordsRoundTrip(t *testing.T) {
	if got := unsafe.Sizeof(record{}); got != 16 {
		t.Fatalf("record is %d bytes, want 16", got)
	}
	for _, name := range Names() {
		g := NewGenerator(MustGet(name), 11, 3<<40+0x1c0)
		var back isa.Uop
		for i := uint64(0); i < 64*chunkUops; i++ {
			u := g.Next()
			r := pack(&u, g.base)
			r.unpack(i, g.base, &back)
			if back != u {
				t.Fatalf("%s uop %d: packed %+v, unpacked %+v", name, i, u, back)
			}
		}
	}
}

// TestTapePackRejectsOutOfRange: an address the record format cannot
// hold is a loud panic, never a silently truncated offset.
func TestTapePackRejectsOutOfRange(t *testing.T) {
	const base = 1 << 40
	for _, tc := range []struct {
		what string
		u    isa.Uop
	}{
		{"pc", isa.Uop{PC: base - 4, Class: isa.IntALU}},
		{"data address", isa.Uop{PC: base, Class: isa.Load, Mem: isa.MemInfo{Addr: base + 1<<32}}},
		{"branch target", isa.Uop{PC: base, Class: isa.Jump, Branch: isa.BranchInfo{Taken: true, Target: base + 1<<33}}},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, tc.what) || !strings.Contains(msg, "not within 4 GiB above the thread base") {
					t.Errorf("%s: panic %q, want one naming the %s and the 4 GiB bound", tc.what, msg, tc.what)
				}
			}()
			pack(&tc.u, base)
		}()
	}
}

// TestTapeSetSharesOnlyWithCompany: a lone holder gets no tape, so it
// keeps its private read-ahead streams; once a second holder is in
// flight the set binds, and it stays bound after the company leaves. A
// set bound to one group's cores hands no tape to cores of another
// identity.
func TestTapeSetSharesOnlyWithCompany(t *testing.T) {
	wl, err := GetWorkload("2-MIX")
	if err != nil {
		t.Fatal(err)
	}
	a, err := wl.Cores(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := wl.Cores(2)
	if err != nil {
		t.Fatal(err)
	}
	set := NewTapeSet(NewTapeBudget())
	set.Hold()
	if _, ok := set.Streams(a); ok {
		t.Fatal("a lone holder was handed tapes")
	}
	set.Hold()
	if _, ok := set.Streams(a); !ok {
		t.Fatal("a set with two holders refused its first cores")
	}
	if set.Drop() {
		t.Fatal("the first of two drops released the set")
	}
	if _, ok := set.Streams(b); ok {
		t.Error("a set bound to seed 1's cores read seed 2's")
	}
	again, err := wl.Cores(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := set.Streams(again); !ok {
		t.Error("a bound set refused equal cores built separately to its last holder")
	}
	if !set.Drop() {
		t.Error("the last drop did not release the set")
	}
}

// TestTapSeesDeliveredUops: a stream hands its tap exactly the uops
// Next delivered, in order, however it fills its chunks: inline, read
// ahead, or from a tape it leaves after two chunks to generate inline
// or ahead. A second Stop taps nothing more.
func TestTapSeesDeliveredUops(t *testing.T) {
	const n = 4*chunkUops + 100
	for _, mode := range []string{"inline", "read-ahead", "tape", "tape then read-ahead"} {
		t.Run(mode, func(t *testing.T) {
			c := buildCore(MustGet("mcf"), 5, 1<<40)
			s := c.Generator().Stream()
			if strings.HasPrefix(mode, "tape") {
				set := NewTapeSet(&TapeBudget{limit: 2 * chunkBytes})
				set.Hold()
				set.Hold()
				streams, ok := set.Streams([]*Core{c})
				if !ok {
					t.Fatal("set refused its cores")
				}
				s = streams[0]
			}
			if strings.HasSuffix(mode, "read-ahead") {
				s.ReadAhead()
			}
			var tapped []isa.Uop
			s.Tap(func(d []isa.Uop) { tapped = append(tapped, d...) })
			delivered := make([]isa.Uop, n)
			for i := range delivered {
				s.Next(&delivered[i])
			}
			s.Stop()
			s.Stop()
			if len(tapped) != n {
				t.Fatalf("tapped %d uops, delivered %d", len(tapped), n)
			}
			for i := range delivered {
				if tapped[i] != delivered[i] {
					t.Fatalf("uop %d: tapped %+v, delivered %+v", i, tapped[i], delivered[i])
				}
			}
		})
	}
}
