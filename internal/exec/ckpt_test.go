package exec

import (
	"context"
	"sync/atomic"
	"testing"

	"dwarn/internal/ckpt"
	"dwarn/internal/obs"
	"dwarn/internal/sim"
	"dwarn/internal/spec"
)

// countingCkptStore counts publishes: each Put is one cold warmup that
// produced a checkpoint.
type countingCkptStore struct {
	inner ckpt.Store
	puts  atomic.Int64
}

func (s *countingCkptStore) Get(key string) (*ckpt.Image, bool) { return s.inner.Get(key) }
func (s *countingCkptStore) Put(key string, img *ckpt.Image) {
	s.puts.Add(1)
	s.inner.Put(key, img)
}

// TestOneWarmupPerGroup runs a sweep whose cells split into exactly two
// checkpoint groups (two seeds, three policies each) and asserts that
// exactly one cell per group paid for a cold warmup — the rest forked.
func TestOneWarmupPerGroup(t *testing.T) {
	var cells []*spec.Resolved
	for _, p := range []string{"icount", "stall", "dwarn"} {
		for _, seed := range []uint64{5, 6} {
			rs := spec.RunSpec{
				Policy:       spec.Policy{Name: p},
				Workload:     spec.Workload{Name: "2-ILP"},
				Seed:         seed,
				WarmupCycles: 1000, MeasureCycles: 2000,
			}
			res, err := rs.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, res)
		}
	}
	groups := map[string]bool{}
	for _, c := range cells {
		if c.CheckpointKey == "" {
			t.Fatalf("cell %s has no checkpoint key", c.Fingerprint[:12])
		}
		groups[c.CheckpointKey] = true
	}
	if len(groups) != 2 {
		t.Fatalf("expected 2 checkpoint groups, got %d", len(groups))
	}

	store := &countingCkptStore{inner: ckpt.NewMemStore(ckpt.DefaultMemBytes)}
	e := New(Options{Workers: 4, Checkpoints: store})
	results := e.Execute(context.Background(), cells, nil)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if got := store.puts.Load(); got != 2 {
		t.Errorf("expected exactly one checkpoint publish per group (2), got %d", got)
	}
}

// TestWarmGateLeaderDeath exercises promotion: when the warm leader
// exits without publishing, exactly one waiter takes over rather than
// all of them stampeding.
func TestWarmGateLeaderDeath(t *testing.T) {
	g := newWarmGate()
	leave, err := g.enter(context.Background(), "k")
	if err != nil {
		t.Fatal(err)
	}
	promoted := make(chan func(), 2)
	for i := 0; i < 2; i++ {
		go func() {
			l, err := g.enter(context.Background(), "k")
			if err != nil {
				t.Error(err)
			}
			promoted <- l
		}()
	}
	leave() // leader dies without publishing
	// Exactly one waiter becomes the new leader; the other still waits.
	first := <-promoted
	select {
	case <-promoted:
		t.Fatal("both waiters promoted at once after leader death")
	default:
	}
	// The new leader publishes; the remaining waiter floods through.
	g.release("k")
	first()
	<-promoted
}

// TestRunReceivesGatedCheckpointStore: a custom Run finds the
// executor's gated checkpoint store in res.Options.Checkpoints (nil
// when checkpointing is off), on a copy: the caller's cell is unchanged.
func TestRunReceivesGatedCheckpointStore(t *testing.T) {
	for _, on := range []bool{true, false} {
		cells := resolveCells(t, []string{"icount"}, []uint64{1})
		opts := Options{Workers: 1, Registry: obs.NewRegistry()}
		if on {
			opts.Checkpoints = ckpt.NewMemStore(0)
		}
		var got ckpt.Store
		opts.Run = func(ctx context.Context, res *spec.Resolved) (*sim.Result, error) {
			got = res.Options.Checkpoints
			return fakeResult(res), nil
		}
		ex := New(opts)
		if err := FirstError(ex.Execute(context.Background(), cells, nil)); err != nil {
			t.Fatal(err)
		}
		if on && (got == nil || got != ex.CheckpointStore()) {
			t.Errorf("checkpointing on: Run saw %v, want the gated store %v", got, ex.CheckpointStore())
		}
		if !on && got != nil {
			t.Errorf("checkpointing off: Run saw %v, want nil", got)
		}
		if cells[0].Options.Checkpoints != nil {
			t.Error("executor wrote the store into the caller's cell")
		}
	}
}
