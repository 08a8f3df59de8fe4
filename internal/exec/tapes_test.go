package exec

import (
	"context"
	"sync"
	"testing"

	"dwarn/internal/ckpt"
	"dwarn/internal/core"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
	"dwarn/internal/workload"
)

// TestGroupGeneratesEachChunkOnce: the six paper policies of one
// (workload, seed) group all read one tape set, every chunk the group
// generated is on it (so no chunk was generated twice, and no cell
// generated its own correct path), the cells read each chunk several
// times over, and every result matches a private run bit for bit.
// Once Execute returns, the executor holds no group record and its
// budget is empty.
func TestGroupGeneratesEachChunkOnce(t *testing.T) {
	var cells []*spec.Resolved
	for _, p := range core.PaperPolicies() {
		rs := spec.RunSpec{
			Policy:       spec.Policy{Name: p},
			Workload:     spec.Workload{Name: "4-MIX"},
			Seed:         3,
			WarmupCycles: 1500, MeasureCycles: 4000,
		}
		c, err := rs.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, c)
	}
	if len(cells) != 6 {
		t.Fatalf("%d paper policies, want 6", len(cells))
	}

	var mu sync.Mutex
	sets := map[*workload.TapeSet]int{}
	opts := Options{Workers: 2, Checkpoints: ckpt.NewMemStore(0), Registry: obs.NewRegistry()}
	opts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
		mu.Lock()
		sets[res.Options.Tapes]++
		mu.Unlock()
		return sim.RunContext(ctx, res.Options)
	}
	ex := New(opts)
	gen0, read0, _ := workload.TapeChunks()
	out := ex.Execute(context.Background(), cells, nil)
	gen1, read1, _ := workload.TapeChunks()
	if err := FirstError(out); err != nil {
		t.Fatal(err)
	}

	if len(sets) != 1 || sets[nil] != 0 {
		t.Fatalf("runs saw tape sets %v, want all six on one set", sets)
	}
	var set *workload.TapeSet
	for s := range sets {
		set = s
	}
	generated, read := gen1-gen0, read1-read0
	if generated == 0 || generated != uint64(set.Chunks()) {
		t.Errorf("%d chunks generated, the group's tapes hold %d: want every generated chunk on a tape, and some", generated, set.Chunks())
	}
	if read < 3*generated {
		t.Errorf("%d chunks read of %d generated, want at least 3 reads per chunk", read, generated)
	}

	for i, c := range cells {
		want, err := sim.Run(c.Options)
		if err != nil {
			t.Fatal(err)
		}
		if got := out[i].Result.CounterDigest(); got != want.CounterDigest() {
			t.Errorf("cell %d (%s): tape digest %s, private %s", i, c.Spec.Policy.ID(), got, want.CounterDigest())
		}
	}

	ex.mu.Lock()
	held := len(ex.groups)
	ex.mu.Unlock()
	if held != 0 {
		t.Errorf("executor holds %d group records after Execute", held)
	}
	if used := ex.tapeBudget.Used(); used != 0 {
		t.Errorf("tape budget holds %d bytes after Execute, want 0", used)
	}
}

// TestLoneCellReadsPrivately: a cell with no company in its group
// reads no tape, so it keeps its private read-ahead streams; so does
// every cell when checkpointing is off.
func TestLoneCellReadsPrivately(t *testing.T) {
	for _, on := range []bool{true, false} {
		cells := resolveCells(t, []string{"icount"}, []uint64{1})
		opts := Options{Workers: 1, Registry: obs.NewRegistry()}
		if on {
			opts.Checkpoints = ckpt.NewMemStore(0)
		}
		gen0, read0, _ := workload.TapeChunks()
		if err := FirstError(New(opts).Execute(context.Background(), cells, nil)); err != nil {
			t.Fatal(err)
		}
		if gen1, read1, _ := workload.TapeChunks(); gen1 != gen0 || read1 != read0 {
			t.Errorf("checkpointing %v: a lone cell generated %d and read %d tape chunks, want none", on, gen1-gen0, read1-read0)
		}
	}
}
