package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"testing"

	"dwarn/internal/trace"
	"dwarn/internal/workload"
)

// traceGoldenEntry pins one recorded trace file: the SHA-256 of its
// bytes, plus its size and per-thread uop counts so a mismatch report
// shows what moved.
type traceGoldenEntry struct {
	SHA256 string   `json:"sha256"`
	Bytes  int      `json:"bytes"`
	Uops   []uint64 `json:"uops"`
}

// TestTraceGolden pins the bytes trace recording writes, by both paths
// into trace.Writer: streams drained standalone, as `smttrace record`
// does, and a live simulation recording through Options.Record with
// its streams read ahead, with and without a shared tape set. The tape
// run records the same uops as the private run, so both entries hold
// the same digest. Regenerate deliberately with
//
//	go test ./internal/sim -run TestTraceGolden -update
func TestTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "trace_golden.json")
	got := make(map[string]traceGoldenEntry)

	for _, c := range []struct {
		workload string
		uops     int
	}{{"2-MIX", 60000}, {"8-MEM", 20000}} {
		raw := recordTraceBytes(t, c.workload, DefaultSeed, c.uops)
		got["record/"+c.workload] = traceEntry(t, raw)
	}

	wl, err := workload.GetWorkload("4-MIX")
	if err != nil {
		t.Fatal(err)
	}
	for _, shared := range []bool{false, true} {
		opts := Options{
			Policy:        "dwarn",
			Workload:      wl,
			Seed:          DefaultSeed,
			WarmupCycles:  3000,
			MeasureCycles: 10000,
			Record:        trace.NewWriter(wl.Name, DefaultSeed),
		}
		name := "run/dwarn/4-MIX"
		if shared {
			// Two holders give the run company, so it reads the tapes.
			opts.Tapes = workload.NewTapeSet(workload.NewTapeBudget())
			opts.Tapes.Hold()
			opts.Tapes.Hold()
			name += "/tapes"
		}
		if _, err := Run(opts); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := opts.Record.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got[name] = traceEntry(t, buf.Bytes())
	}

	if *updateGolden {
		writeGolden(t, path, got)
		return
	}
	var want map[string]traceGoldenEntry
	readGolden(t, path, &want)
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		if g.SHA256 != w.SHA256 {
			t.Errorf("%s: trace bytes changed\n got %s (%d bytes, uops %v)\nwant %s (%d bytes, uops %v)",
				name, g.SHA256, g.Bytes, g.Uops, w.SHA256, w.Bytes, w.Uops)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden trace no longer recorded", name)
		}
	}
}

// traceEntry loads raw as a trace, so a pinned file is also a valid
// one, and summarizes it.
func traceEntry(t *testing.T, raw []byte) traceGoldenEntry {
	t.Helper()
	tr, err := trace.Read(bytes.NewReader(raw), 0)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	e := traceGoldenEntry{SHA256: hex.EncodeToString(sum[:]), Bytes: len(raw)}
	for i := range tr.Threads {
		e.Uops = append(e.Uops, tr.Threads[i].Uops)
	}
	return e
}
