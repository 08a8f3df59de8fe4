package trace

import (
	"bytes"
	"sync"
	"testing"

	"dwarn/internal/isa"
	"dwarn/internal/workload"
)

// recordStandalone records n uops per thread of the named workload into
// a serialized trace, returning the file bytes.
func recordStandalone(t testing.TB, wlName string, seed uint64, n int) []byte {
	t.Helper()
	wl, err := workload.GetWorkload(wlName)
	if err != nil {
		t.Fatal(err)
	}
	streams, err := wl.Generators(seed)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(wl.Name, seed)
	for _, s := range streams {
		w.Record(s)
		for i := 0; i < n; i++ {
			nextUop(s)
		}
		s.Stop()
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readTrace(t testing.TB, raw []byte) *Trace {
	t.Helper()
	tr, err := Read(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRoundTripUopStream is the core property: replaying a recorded
// trace yields, uop for uop, the stream a fresh generator produces.
func TestRoundTripUopStream(t *testing.T) {
	const n = 20000
	raw := recordStandalone(t, "2-MIX", 42, n)
	tr := readTrace(t, raw)

	wl, _ := workload.GetWorkload("2-MIX")
	fresh, err := wl.Generators(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Threads) != len(fresh) {
		t.Fatalf("thread count %d, want %d", len(tr.Threads), len(fresh))
	}
	for ti, src := range tr.Streams() {
		for i := 0; i < n; i++ {
			got, want := nextUop(src), nextUop(fresh[ti])
			if got != want {
				t.Fatalf("thread %d uop %d:\n got %+v\nwant %+v", ti, i, got, want)
			}
		}
	}
}

// TestRoundTripMetadata checks the recorded identity survives the
// encode/decode cycle.
func TestRoundTripMetadata(t *testing.T) {
	raw := recordStandalone(t, "2-MEM", 7, 500)
	tr := readTrace(t, raw)

	if tr.Workload != "2-MEM" || tr.Seed != 7 {
		t.Errorf("workload/seed = %q/%d", tr.Workload, tr.Seed)
	}
	if tr.Digest == "" || len(tr.Digest) != 64 {
		t.Errorf("digest %q", tr.Digest)
	}
	wl, _ := workload.GetWorkload("2-MEM")
	srcs, _ := wl.Generators(7)
	for i, th := range tr.Threads {
		want := srcs[i].ReplayMeta()
		if th.Meta.Benchmark != want.Benchmark || th.Meta.Base != want.Base || th.Meta.StartPC != want.StartPC {
			t.Errorf("thread %d meta identity mismatch: %+v", i, th.Meta)
		}
		if th.Meta.Footprint != want.Footprint {
			t.Errorf("thread %d footprint %+v, want %+v", i, th.Meta.Footprint, want.Footprint)
		}
		if len(th.Meta.BlockStarts) != len(want.BlockStarts) {
			t.Fatalf("thread %d block count %d, want %d", i, len(th.Meta.BlockStarts), len(want.BlockStarts))
		}
		for j := range want.BlockStarts {
			if th.Meta.BlockStarts[j] != want.BlockStarts[j] {
				t.Fatalf("thread %d block %d = %d, want %d", i, j, th.Meta.BlockStarts[j], want.BlockStarts[j])
			}
		}
		if th.Meta.FarW != want.FarW || th.Meta.MidW != want.MidW || th.Meta.LoadFrac != want.LoadFrac {
			t.Errorf("thread %d wrong-path params mismatch", i)
		}
	}
}

// TestWrongPathReplayMatchesGenerator: after consuming the same prefix,
// the replay stream's synthesized wrong-path episode must be bit-identical
// to the live generator's — including the redirect PC.
func TestWrongPathReplayMatchesGenerator(t *testing.T) {
	const prefix, episode = 5000, 200
	raw := recordStandalone(t, "2-MIX", 11, prefix+10)
	tr := readTrace(t, raw)

	wl, _ := workload.GetWorkload("2-MIX")
	fresh, _ := wl.Generators(11)

	for ti, src := range tr.Streams() {
		gen := fresh[ti]
		var branch isa.Uop
		for i := 0; i < prefix; i++ {
			a, b := nextUop(src), nextUop(gen)
			if a != b {
				t.Fatalf("thread %d prefix diverged at %d", ti, i)
			}
			if a.Class == isa.CondBranch {
				branch = a
			}
		}
		if branch.PC == 0 {
			t.Fatalf("thread %d: no conditional branch in prefix", ti)
		}
		wpPCr := src.WrongPathPC(&branch, !branch.Branch.Taken)
		wpPCg := gen.WrongPathPC(&branch, !branch.Branch.Taken)
		if wpPCr != wpPCg {
			t.Fatalf("thread %d wrong-path PC %#x, want %#x", ti, wpPCr, wpPCg)
		}
		src.StartWrongPath(branch.Seq, wpPCr)
		gen.StartWrongPath(branch.Seq, wpPCg)
		for i := 0; i < episode; i++ {
			a, b := nextWrongUop(src), nextWrongUop(gen)
			if a != b {
				t.Fatalf("thread %d wrong-path uop %d:\n got %+v\nwant %+v", ti, i, a, b)
			}
		}
	}
}

// TestReplayerLoops: a replay stream that exhausts its recording wraps
// to the recording's start instead of crashing, numbering on.
func TestReplayerLoops(t *testing.T) {
	const n = 100
	raw := recordStandalone(t, "2-ILP", 3, n)
	tr := readTrace(t, raw)
	s := tr.Streams()[0]
	recorded := make([]isa.Uop, n)
	for i := 0; i < 3*n; i++ {
		u := nextUop(s)
		if u.Seq != uint64(i) {
			t.Fatalf("seq %d at uop %d", u.Seq, i)
		}
		if i < n {
			recorded[i] = u
			continue
		}
		want := recorded[i%n]
		want.Seq = u.Seq
		if u != want {
			t.Fatalf("uop %d after wrapping:\n got %+v\nwant %+v", i, u, want)
		}
	}
	if loops := (s.Delivered() - 1) / tr.Threads[0].Uops; loops != 2 {
		t.Fatalf("delivered %d uops of a %d-uop recording: %d loops, want 2", s.Delivered(), tr.Threads[0].Uops, loops)
	}
}

// TestConcurrentReplayersShareTrace: replay streams over one Trace must
// be independent and race-free (run with -race).
func TestConcurrentReplayersShareTrace(t *testing.T) {
	const n = 4000
	raw := recordStandalone(t, "2-MIX", 21, n)
	tr := readTrace(t, raw)

	const replicas = 4
	streams := make([][]isa.Uop, replicas)
	var wg sync.WaitGroup
	for k := 0; k < replicas; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			r := tr.Streams()[0]
			out := make([]isa.Uop, 0, n)
			for i := 0; i < n; i++ {
				out = append(out, nextUop(r))
			}
			// Exercise wrong-path synthesis concurrently too.
			r.StartWrongPath(uint64(n), r.StartPC())
			for i := 0; i < 100; i++ {
				out = append(out, nextWrongUop(r))
			}
			streams[k] = out
		}(k)
	}
	wg.Wait()
	for k := 1; k < replicas; k++ {
		if len(streams[k]) != len(streams[0]) {
			t.Fatalf("replica %d length %d", k, len(streams[k]))
		}
		for i := range streams[0] {
			if streams[k][i] != streams[0][i] {
				t.Fatalf("replica %d diverged at uop %d", k, i)
			}
		}
	}
}

// TestCorruptTraces covers the error paths of Read.
func TestCorruptTraces(t *testing.T) {
	good := recordStandalone(t, "2-ILP", 5, 2000)

	cases := []struct {
		name string
		raw  []byte
	}{
		{"empty", nil},
		{"short header", good[:3]},
		{"bad magic", append([]byte("NOPE"), good[4:]...)},
		{"bad version", append(append([]byte{}, "DWTR\xff"...), good[5:]...)},
		{"truncated half", good[:len(good)/2]},
		{"truncated tail", good[:len(good)-7]},
		{"trailing garbage", append(append([]byte{}, good...), 0xde, 0xad)},
	}
	// Flip a byte inside the compressed payload: either the gzip frame
	// or the decoded records must fail validation.
	flipped := append([]byte{}, good...)
	flipped[len(flipped)/2] ^= 0x40
	cases = append(cases, struct {
		name string
		raw  []byte
	}{"flipped byte", flipped})

	for _, c := range cases {
		if _, err := Read(bytes.NewReader(c.raw), 0); err == nil {
			t.Errorf("%s: Read accepted corrupt input", c.name)
		}
	}
}

// TestEmptyStreamRejected: a thread declaring zero uops must be
// rejected at load — its replay stream would otherwise wrap forever without
// producing a uop, and the "unreachable" decode panic would take down
// whatever service goroutine was running the simulation.
func TestEmptyStreamRejected(t *testing.T) {
	wl, _ := workload.GetWorkload("2-ILP")
	streams, _ := wl.Generators(3)
	w := NewWriter(wl.Name, 3)
	w.Record(streams[0]) // registered, but no uops ever recorded
	streams[0].Stop()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), 0); err == nil {
		t.Fatal("Read accepted a zero-uop thread")
	}
}

// TestHugeFootprintRejected: declared region sizes are capped at load,
// because the simulator pre-touches every declared line before the
// first cycle — an unbounded CodeBytes would wedge a worker goroutine
// beyond the reach of job cancellation.
func TestHugeFootprintRejected(t *testing.T) {
	wl, _ := workload.GetWorkload("2-ILP")
	cores, _ := wl.Cores(3)
	gen := cores[0].Generator()
	// Inflated metadata simulates a hostile upload; the stream bytes
	// themselves stay valid.
	meta := gen.ReplayMeta()
	meta.Footprint.CodeBytes = 1 << 50
	s := workload.NewStream(gen, meta)

	w := NewWriter(wl.Name, 3)
	w.Record(s)
	for i := 0; i < 100; i++ {
		nextUop(s)
	}
	s.Stop()
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(buf.Bytes()), 0); err == nil {
		t.Fatal("Read accepted a petabyte code footprint")
	}
}

// TestPayloadCap: the decompression bomb guard trips.
func TestPayloadCap(t *testing.T) {
	good := recordStandalone(t, "2-ILP", 5, 5000)
	if _, err := Read(bytes.NewReader(good), 64); err == nil {
		t.Fatal("Read accepted payload over the cap")
	}
}

// TestCompression sanity-checks that delta+varint+gzip earns its keep:
// well under the ~26 bytes a naive fixed-width encoding would need.
func TestCompression(t *testing.T) {
	const n = 50000
	raw := recordStandalone(t, "2-MIX", 42, n)
	perUop := float64(len(raw)) / (2 * n)
	t.Logf("trace: %d bytes for %d uops (%.2f bytes/uop)", len(raw), 2*n, perUop)
	if perUop > 8 {
		t.Errorf("encoding too fat: %.2f bytes/uop", perUop)
	}
}

// BenchmarkGeneratorNext and BenchmarkReplayerNext compare uops/sec
// delivered to the pipeline: the replay fast path must beat synthetic
// generation (the acceptance criterion for the trace subsystem).
func BenchmarkGeneratorNext(b *testing.B) {
	p, err := workload.Get("gzip")
	if err != nil {
		b.Fatal(err)
	}
	g := workload.NewGenerator(p, 42, 1<<40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

func BenchmarkReplayerNext(b *testing.B) {
	raw := recordStandalone(b, "2-ILP", 42, 200000)
	tr := readTrace(b, raw)
	r := tr.Streams()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nextUop(r)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uops/s")
}

// nextUop and nextWrongUop return a stream's next correct-path and
// wrong-path uop.
func nextUop(s *workload.Stream) (u isa.Uop) {
	s.Next(&u)
	return u
}

func nextWrongUop(s *workload.Stream) (u isa.Uop) {
	s.NextWrongPath(&u)
	return u
}
